package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"threads/internal/spec"
)

func allActionKinds() []Event {
	return evs(
		spec.Acquire{T: 1, M: 2},
		spec.Release{T: 1, M: 2},
		spec.Enqueue{T: 1, M: 2, C: 3},
		spec.Resume{T: 1, M: 2, C: 3},
		spec.Signal{T: 4, C: 3, Removed: []spec.ThreadID{1, 2}},
		spec.Broadcast{T: 4, C: 3},
		spec.P{T: 1, S: 5},
		spec.V{T: 2, S: 5},
		spec.Alert{T: 1, Target: 2},
		spec.TestAlert{T: 2, Result: true},
		spec.AlertPReturn{T: 1, S: 5},
		spec.AlertPRaise{T: 1, S: 5},
		spec.AlertResumeReturn{T: 1, M: 2, C: 3},
		spec.AlertResumeRaise{T: 1, M: 2, C: 3, Variant: spec.VariantFinal},
		spec.PriBoost{T: 1, Old: 0, New: 3},
		spec.PriRestore{T: 1, Old: 3, New: 1},
	)
}

func TestEncodeRoundTripAllKinds(t *testing.T) {
	in := allActionKinds()
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d → %d events", len(in), len(out))
	}
	for i := range in {
		if !reflect.DeepEqual(in[i].Action, out[i].Action) {
			t.Fatalf("event %d: %#v != %#v", i, in[i].Action, out[i].Action)
		}
		if in[i].Seq != out[i].Seq {
			t.Fatalf("event %d seq %d != %d", i, in[i].Seq, out[i].Seq)
		}
	}
}

func TestEncodeIsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, evs(spec.Acquire{T: 1, M: 1}, spec.Release{T: 1, M: 1})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"kind":"Acquire"`) {
		t.Fatalf("line 0 = %s", lines[0])
	}
	// Every prefix is a valid trace.
	out, err := Read(strings.NewReader(lines[0] + "\n"))
	if err != nil || len(out) != 1 {
		t.Fatalf("prefix read: %v, %d events", err, len(out))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"kind":"Frobnicate","seq":1}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("non-JSON accepted")
	}
}

// TestQuickEncodeRoundTrip: random generated histories survive the round
// trip and still check cleanly afterwards.
func TestQuickEncodeRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := newSpecTraceGen(r, 3)
		for steps := 0; steps < 120; steps++ {
			g.step()
		}
		var buf bytes.Buffer
		if err := Write(&buf, g.events); err != nil {
			t.Log(err)
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(out) != len(g.events) {
			return false
		}
		for i := range out {
			if !reflect.DeepEqual(out[i].Action, g.events[i].Action) {
				return false
			}
		}
		if _, err := CheckAll(out); err != nil {
			t.Logf("decoded trace no longer conforms: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
