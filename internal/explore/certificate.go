package explore

import (
	"bytes"
	"encoding/json"
	"fmt"

	"threads/internal/checker"
	"threads/internal/trace"
)

// CertKind identifies a schedule certificate file (and distinguishes it
// from a JSON-Lines trace recording, whose lines are also JSON objects).
const CertKind = "schedule-certificate"

// Certificate is a replayable witness of one schedule: the sparse list of
// scheduling decisions that differed from the default policy. Replaying it
// re-runs the litmus program deterministically — equal certificates
// produce byte-identical linearization traces.
type Certificate struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Litmus  string `json:"litmus"`
	// Violation/Detail record the failure this certificate witnesses.
	Violation string   `json:"violation,omitempty"`
	Detail    string   `json:"detail,omitempty"`
	Choices   []Choice `json:"choices"`
}

// Choice forces one decision: at decision point Step, run Thread (by
// name). Unlisted decision points follow the default policy.
type Choice struct {
	Step   int    `json:"step"`
	Thread string `json:"thread"`
}

// certificateFromRun captures res's schedule as a certificate.
func certificateFromRun(lit *checker.Litmus, res RunResult) *Certificate {
	c := &Certificate{Kind: CertKind, Version: 1, Litmus: lit.Name}
	if res.Violation != nil {
		c.Violation = res.Violation.Kind
		c.Detail = res.Violation.Detail
	}
	for i, d := range res.Decisions {
		if d.Chosen != d.Default {
			c.Choices = append(c.Choices, Choice{Step: i, Thread: res.threads[d.CandIDs[d.Chosen]].Name()})
		}
	}
	return c
}

// Encode serializes the certificate as indented JSON.
func (c *Certificate) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// DecodeCertificate parses data, reporting an error if it is not a
// schedule certificate this version understands.
func DecodeCertificate(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("explore: not a schedule certificate: %w", err)
	}
	if c.Kind != CertKind {
		return nil, fmt.Errorf("explore: not a schedule certificate (kind %q)", c.Kind)
	}
	if c.Version != 1 {
		return nil, fmt.Errorf("explore: unsupported certificate version %d", c.Version)
	}
	if c.Litmus == "" {
		return nil, fmt.Errorf("explore: certificate names no litmus program")
	}
	return &c, nil
}

// IsCertificate reports whether data looks like a schedule certificate
// (used by threadsim -replay to distinguish certificates from traces).
func IsCertificate(data []byte) bool {
	_, err := DecodeCertificate(data)
	return err == nil
}

// Replay runs the certificate's schedule on its litmus program. The
// result counts, in Unapplied, the choices that did not apply: a stale
// certificate can replay clean only by leaving some of its choices out.
func Replay(lit *checker.Litmus, c *Certificate) RunResult {
	h := newRunner()
	defer h.close()
	return replay(lit, c, h)
}

func replay(lit *checker.Litmus, c *Certificate, h *runner) RunResult {
	ov := make(map[int]string, len(c.Choices))
	for _, ch := range c.Choices {
		ov[ch.Step] = ch.Thread
	}
	rec := &recorder{overrides: ov}
	res := h.run(lit, rec)
	res.Unapplied = len(c.Choices) - rec.applied
	return res
}

// ReplayTraceBytes replays the certificate and serializes the resulting
// linearization trace (JSON Lines). The bytes are a deterministic function
// of the certificate.
func ReplayTraceBytes(lit *checker.Litmus, c *Certificate) ([]byte, RunResult, error) {
	res := Replay(lit, c)
	var buf bytes.Buffer
	if err := trace.Write(&buf, res.Events); err != nil {
		return nil, res, err
	}
	return buf.Bytes(), res, nil
}

// Minimize shrinks a violating certificate by dropping forced decisions —
// first in halving chunks, then one at a time to a fixpoint — keeping a
// drop only while a violation of the same kind still reproduces. The
// result replays to the recorded failure with as few forced decisions as
// the greedy search finds (not necessarily the global minimum). A trial
// that drops a choice shifts the steps the later ones meet, so trials
// tolerate choices that do not apply; a choice left at the fixpoint
// applies, since dropping one that does not would change nothing.
func Minimize(lit *checker.Litmus, c *Certificate) *Certificate {
	h := newRunner()
	defer h.close()
	reproduces := func(choices []Choice) (*Violation, bool) {
		t := *c
		t.Choices = choices
		res := replay(lit, &t, h)
		return res.Violation, res.Violation != nil && res.Violation.Kind == c.Violation
	}
	if c.Violation == "" {
		return c
	}
	if _, ok := reproduces(c.Choices); !ok {
		// Certificates are recorded from deterministic runs, so this
		// indicates the litmus changed since recording; keep as-is.
		return c
	}
	cur := append([]Choice(nil), c.Choices...)
	size := len(cur) / 2
	if size < 1 {
		size = 1
	}
	var last *Violation
	for {
		removed := false
		for lo := 0; lo < len(cur); {
			hi := lo + size
			if hi > len(cur) {
				hi = len(cur)
			}
			trial := append(append([]Choice{}, cur[:lo]...), cur[hi:]...)
			if v, ok := reproduces(trial); ok {
				cur = trial
				last = v
				removed = true
				// Do not advance lo: the next chunk shifted into place.
			} else {
				lo = hi
			}
		}
		if size > 1 {
			size /= 2
			continue
		}
		if !removed {
			break
		}
	}
	out := *c
	out.Choices = cur
	if last != nil {
		out.Detail = last.Detail
	}
	return &out
}
