package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"

	lmfao "repro"
	"repro/internal/data"
)

// smokeScale keeps every run under a second: 8.4 k Inventory rows.
const smokeScale = 0.0001

// smoke runs one workload at the smoke scale and returns its result.
func smoke(t *testing.T, workload string, trace bool) result {
	t.Helper()
	outDir = t.TempDir()
	r, res, _, err := execute(config{workload: workload, seed: 2019, seconds: 0.25, trace: trace, scale: smokeScale})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, r.failures)
	}
	return res
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileAgreesWithCode checks that BENCHMARK.json and the lists
// in the code name the same workloads and metrics, in the same order, with
// the same units, directions and bounds, and that the names are well formed.
func TestBenchmarkFileAgreesWithCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		once(w.Name)
		if w.Name != allWorkloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters), the code has %q", i, w.Name, len(w.Why), allWorkloads[i].name)
		}
		if nativeNames[w.Name] == nil {
			t.Errorf("workload %q has no native metric names", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		once(m.Name)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v, the code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		once(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v, the code has %+v", i, m, d)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// TestSmokeAllWorkloads runs every workload once untraced and once traced
// and checks that each run emits exactly the metrics of its mode, each with
// its unit and a finite value, the end-to-end ones never 0.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w.name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// hashUpdate feeds an update's bytes to h.
func hashUpdate(h hash.Hash, u lmfao.Update) {
	h.Write([]byte(u.Relation))
	var buf [8]byte
	for _, block := range [][]data.Column{u.Deletes, u.Inserts} {
		for _, c := range block {
			for i := 0; i < c.Len(); i++ {
				if c.IsInt() {
					binary.LittleEndian.PutUint64(buf[:], uint64(c.Ints[i]))
				} else {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Floats[i]))
				}
				h.Write(buf[:])
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the update streams byte
// for byte and the exact-count metrics of a traced run.
func TestSameSeedSameInputs(t *testing.T) {
	ds, err := generate("retailer", smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) [32]byte {
		rng := rand.New(rand.NewSource(seed))
		fact, err := newFactStream(rng, largest(ds.DB), largest(ds.DB).Attrs[0], 1.1)
		if err != nil {
			t.Fatal(err)
		}
		dims := newDimStream(rng, ds.DB, dimensions, 0.01)
		h := sha256.New()
		for i := 0; i < 50; i++ {
			for _, u := range []lmfao.Update{fact.update(64, 64), dims.update()} {
				hashUpdate(h, u)
			}
		}
		return [32]byte(h.Sum(nil))
	}
	if digest(7) != digest(7) {
		t.Error("the same seed gave two different update streams")
	}
	if digest(7) == digest(8) {
		t.Error("two seeds gave the same update stream")
	}

	exact := []string{"core.plans", "core.views", "core.groups", "core.aggs_per_view",
		"ml.tree_requeries", "moo.output_bytes", "wal.bytes_per_row"}
	for _, workload := range []string{"batch_scalar", "durable_stream"} {
		a, b := smoke(t, workload, true), smoke(t, workload, true)
		for _, name := range exact {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v, then %v with the same seed", workload, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || q3 != 6 {
		t.Errorf("quartiles of {1, 5} = %v, %v, want 0, 6", q1, q3)
	}
}
