package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"threads/derived"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must honour.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricJSON            `json:"end_to_end"`
	PerLayer  []metricJSON            `json:"per_layer"`
}

type metricJSON struct {
	Name, Unit, Better string
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// each metric BENCHMARK.json names to be printed with its unit, on a
// correct run.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for traced, defs := range [][]metricJSON{b.EndToEnd, b.PerLayer} {
			var out, errb bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[traced]}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics printed, BENCHMARK.json names %d", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%v: metric %s printed as %+v, want unit %s", args, d.Name, m, d.Unit)
				}
				if traced == 0 && m.Value <= 0 {
					t.Errorf("%v: end-to-end metric %s = %v, want > 0", args, d.Name, m.Value)
				}
			}
			if traced == 1 {
				if err := layersSeparate(w.Name, res.Metrics); err != nil {
					t.Errorf("%v: %v", args, err)
				}
			}
		}
	}
}

// layersSeparate checks that the traced run shows each workload exercising
// the layers it exists for, and bypassing the ones it should not touch.
func layersSeparate(workload string, m map[string]metricValue) error {
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "pipeline":
		if v("timer.arm_per_op") == 0 || v("gate.park_per_op")+v("cond.park_frac") == 0 {
			return fmt.Errorf("pipeline armed no timer or parked nowhere")
		}
	case "kv":
		if v("timer.arm_per_op") != 0 || v("alert.wakes") != 0 {
			return fmt.Errorf("kv used the timer wheel or alerts")
		}
		if v("gate.spin_per_op") == 0 || v("cond.bcast_woke_per_write") == 0 {
			return fmt.Errorf("kv never spun (%v/op) or never woke a thread by Broadcast (%v/write)", v("gate.spin_per_op"), v("cond.bcast_woke_per_write"))
		}
	case "verify":
		if v("core.events") != 0 {
			return fmt.Errorf("verify moved %v core counters", v("core.events"))
		}
	}
	return nil
}

// TestTablesMatchBenchmarkFile keeps the metric tables in main.go and
// BENCHMARK.json in step.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, d := range b.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit, d.Better})
	}
	for _, d := range b.PerLayer {
		layer = append(layer, metricDef{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("metric tables differ from BENCHMARK.json")
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s in BENCHMARK.json is not implemented", w.Name)
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	if !bytes.Equal(genPipeline(7).encode(), genPipeline(7).encode()) {
		t.Error("pipeline: one seed gave two inputs")
	}
	if bytes.Equal(genPipeline(7).encode(), genPipeline(8).encode()) {
		t.Error("pipeline: two seeds gave one input")
	}
	if !bytes.Equal(genKV(7, 2).encode(), genKV(7, 2).encode()) {
		t.Error("kv: one seed gave two inputs")
	}
	if bytes.Equal(genKV(7, 2).encode(), genKV(8, 2).encode()) {
		t.Error("kv: two seeds gave one input")
	}
	if !reflect.DeepEqual(genVerify(7), genVerify(7)) {
		t.Error("verify: one seed gave two orders")
	}
}

// TestPipelineCheckCatchesFaults injects a dropped, a duplicated and a
// wrong reply into a real round's log.
func TestPipelineCheckCatchesFaults(t *testing.T) {
	dur := 100 * time.Millisecond
	r, p := pipelineRound(genPipeline(5), dur, nil, newPipelineScratch(dur))
	if r.failed != 0 || r.err != nil || len(p.out.log) < 3 {
		t.Fatalf("clean round: failed=%d err=%v logged=%d", r.failed, r.err, len(p.out.log))
	}
	clean := append([]logRec(nil), p.out.log...)
	faults := map[string]func([]logRec) []logRec{
		"dropped":    func(l []logRec) []logRec { return l[1:] },
		"duplicated": func(l []logRec) []logRec { return append(l, l[0]) },
		"wrong":      func(l []logRec) []logRec { l[0].result++; return l },
		"stale":      func(l []logRec) []logRec { l[0].version += 1 << 20; return l },
	}
	for name, inject := range faults {
		out := p.out
		out.log = inject(append([]logRec(nil), clean...))
		if failed, err := checkPipeline(p.in, &out, nil); failed == 0 || err == nil {
			t.Errorf("%s reply not caught", name)
		}
	}
}

// TestKVCheckCatchesCorruption corrupts one value of a real round's table.
func TestKVCheckCatchesCorruption(t *testing.T) {
	dur := 100 * time.Millisecond
	r, run := kvRound(genKV(5, nproc()), dur, nil, false, newKVScratch(dur))
	if r.failed != 0 || r.err != nil {
		t.Fatalf("clean round: failed=%d err=%v", r.failed, r.err)
	}
	e := &run.table.shards[3].ents[2]
	e.val++
	e.chk = entryCheck(e.key, e.val)
	if failed, err := checkKV(run.in, run.clients, run.table); failed != 1 || err == nil {
		t.Errorf("corrupted value: failed=%d err=%v", failed, err)
	}
}

// TestKVReadCatchesTornEntry breaks the check word of the hottest key's
// entry; the chained scan must report the reads of its shard as torn.
func TestKVReadCatchesTornEntry(t *testing.T) {
	dur := 10 * time.Millisecond
	in := genKV(5, 1)
	table, clients := setupKV(in, nil, false, newKVScratch(dur))
	table.shards[0].ents[0].val++
	clients[0].run(table, time.Now().Add(dur))
	if clients[0].torn == 0 {
		t.Errorf("%d ops ran and no read saw the torn entry", clients[0].ran)
	}
}

// TestKVLocksAreLineAligned checks the allocator places each shard's lock
// at a cache-line boundary, as alignedRWLock assumes.
func TestKVLocksAreLineAligned(t *testing.T) {
	table, _ := setupKV(genKV(5, 1), nil, false, newKVScratch(time.Millisecond))
	for i, s := range table.shards {
		if p := uintptr(unsafe.Pointer(s.lock.(*derived.RWLock))); p%cacheLine != 0 {
			t.Errorf("shard %d's lock is %d bytes into its cache line", i, p%cacheLine)
		}
	}
}
