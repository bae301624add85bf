package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"threads/internal/spec"
)

// Traces serialize as JSON Lines (one event per line), so long recordings
// stream without buffering the whole run, survive truncation (every prefix
// is a valid trace), and diff cleanly.

// encodedEvent is the wire form of an Event.
type encodedEvent struct {
	Seq    uint64 `json:"seq"`
	Thread string `json:"thread,omitempty"`
	Kind   string `json:"kind"`
	T      int    `json:"t,omitempty"`      // SELF
	M      int    `json:"m,omitempty"`      // mutex id
	C      int    `json:"c,omitempty"`      // condition id
	S      int    `json:"s,omitempty"`      // semaphore id
	Target int    `json:"target,omitempty"` // Alert target
	Rm     []int  `json:"removed,omitempty"`
	Result bool   `json:"result,omitempty"`
	Old    int    `json:"old,omitempty"` // priority before PriBoost/PriRestore
	New    int    `json:"new,omitempty"` // and after
}

func encode(ev Event) (encodedEvent, error) {
	e := encodedEvent{Seq: ev.Seq, Thread: ev.Thread}
	switch a := ev.Action.(type) {
	case spec.Acquire:
		e.Kind, e.T, e.M = "Acquire", int(a.T), int(a.M)
	case spec.Release:
		e.Kind, e.T, e.M = "Release", int(a.T), int(a.M)
	case spec.Enqueue:
		e.Kind, e.T, e.M, e.C = "Enqueue", int(a.T), int(a.M), int(a.C)
	case spec.Resume:
		e.Kind, e.T, e.M, e.C = "Resume", int(a.T), int(a.M), int(a.C)
	case spec.Signal:
		e.Kind, e.T, e.C = "Signal", int(a.T), int(a.C)
		for _, r := range a.Removed {
			e.Rm = append(e.Rm, int(r))
		}
	case spec.Broadcast:
		e.Kind, e.T, e.C = "Broadcast", int(a.T), int(a.C)
	case spec.P:
		e.Kind, e.T, e.S = "P", int(a.T), int(a.S)
	case spec.V:
		e.Kind, e.T, e.S = "V", int(a.T), int(a.S)
	case spec.Alert:
		e.Kind, e.T, e.Target = "Alert", int(a.T), int(a.Target)
	case spec.TestAlert:
		e.Kind, e.T, e.Result = "TestAlert", int(a.T), a.Result
	case spec.AlertPReturn:
		e.Kind, e.T, e.S = "AlertP.Return", int(a.T), int(a.S)
	case spec.AlertPRaise:
		e.Kind, e.T, e.S = "AlertP.Raise", int(a.T), int(a.S)
	case spec.AlertResumeReturn:
		e.Kind, e.T, e.M, e.C = "AlertResume.Return", int(a.T), int(a.M), int(a.C)
	case spec.AlertResumeRaise:
		// Recorded traces always use the final (corrected) semantics.
		e.Kind, e.T, e.M, e.C = "AlertResume.Raise", int(a.T), int(a.M), int(a.C)
	case spec.PriBoost:
		e.Kind, e.T, e.Old, e.New = "PriBoost", int(a.T), a.Old, a.New
	case spec.PriRestore:
		e.Kind, e.T, e.Old, e.New = "PriRestore", int(a.T), a.Old, a.New
	default:
		return e, fmt.Errorf("trace: cannot encode action %T", ev.Action)
	}
	return e, nil
}

func decode(e encodedEvent) (Event, error) {
	ev := Event{Seq: e.Seq, Thread: e.Thread}
	t := spec.ThreadID(e.T)
	switch e.Kind {
	case "Acquire":
		ev.Action = spec.Acquire{T: t, M: spec.MutexID(e.M)}
	case "Release":
		ev.Action = spec.Release{T: t, M: spec.MutexID(e.M)}
	case "Enqueue":
		ev.Action = spec.Enqueue{T: t, M: spec.MutexID(e.M), C: spec.CondID(e.C)}
	case "Resume":
		ev.Action = spec.Resume{T: t, M: spec.MutexID(e.M), C: spec.CondID(e.C)}
	case "Signal":
		a := spec.Signal{T: t, C: spec.CondID(e.C)}
		for _, r := range e.Rm {
			a.Removed = append(a.Removed, spec.ThreadID(r))
		}
		ev.Action = a
	case "Broadcast":
		ev.Action = spec.Broadcast{T: t, C: spec.CondID(e.C)}
	case "P":
		ev.Action = spec.P{T: t, S: spec.SemID(e.S)}
	case "V":
		ev.Action = spec.V{T: t, S: spec.SemID(e.S)}
	case "Alert":
		ev.Action = spec.Alert{T: t, Target: spec.ThreadID(e.Target)}
	case "TestAlert":
		ev.Action = spec.TestAlert{T: t, Result: e.Result}
	case "AlertP.Return":
		ev.Action = spec.AlertPReturn{T: t, S: spec.SemID(e.S)}
	case "AlertP.Raise":
		ev.Action = spec.AlertPRaise{T: t, S: spec.SemID(e.S)}
	case "AlertResume.Return":
		ev.Action = spec.AlertResumeReturn{T: t, M: spec.MutexID(e.M), C: spec.CondID(e.C)}
	case "AlertResume.Raise":
		ev.Action = spec.AlertResumeRaise{T: t, M: spec.MutexID(e.M), C: spec.CondID(e.C), Variant: spec.VariantFinal}
	case "PriBoost":
		ev.Action = spec.PriBoost{T: t, Old: e.Old, New: e.New}
	case "PriRestore":
		ev.Action = spec.PriRestore{T: t, Old: e.Old, New: e.New}
	default:
		return ev, fmt.Errorf("trace: unknown action kind %q", e.Kind)
	}
	return ev, nil
}

// Write serializes events to w as JSON Lines.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		e, err := encode(ev)
		if err != nil {
			return err
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a JSON Lines trace from r.
func Read(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e encodedEvent
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("trace: event %d: %w", len(out)+1, err)
		}
		ev, err := decode(e)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}
