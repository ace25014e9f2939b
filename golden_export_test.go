package qlove

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// Digests of the seeded run below, recorded on the commit BEFORE
// core.Summary became one flat block (24ddeee): the summary representation
// may change, the bytes an engine exports may not.
const (
	goldenExportSHA256 = "e6f88173c8fbcf8723ae2d9d2497d09d7ec60f4a6eb6b482add615919e27b89e"
	goldenDeltaSHA256  = "cce23cce2973553b5ce7ca60bccb388b19b650d43c6ab1082f2a1b391aae0268"
)

// TestGoldenExportBytes pins Engine.Export and one ExportDelta chain, byte
// for byte, across changes to the in-memory summary layout: 200 keys over
// four engines — the default few-k plan under a burst, a timed engine whose
// ticks force-seal short (n < Period) sub-windows, TopKOnly and SampleKOnly —
// hashed in a fixed order. The run checks that it really contains what it
// claims to cover (a seal-time burst flag, a short sub-window, samples,
// tails) before comparing digests.
func TestGoldenExportBytes(t *testing.T) {
	spec := Window{Size: 1024, Period: 128}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	start := time.Date(2026, 10, 3, 9, 0, 0, 0, time.UTC)
	clk := newFakeClock(start)
	type run struct {
		name  string
		ec    EngineConfig
		timed bool
	}
	runs := []run{
		{name: "fewk", ec: EngineConfig{Config: Config{Spec: spec, Phis: phis, FewK: true}}},
		{name: "timed", timed: true, ec: EngineConfig{
			Config:      Config{Spec: spec, Phis: phis, FewK: true},
			TimedWindow: 8 * time.Second, TimedPeriod: time.Second, Clock: clk.now,
		}},
		{name: "topk", ec: EngineConfig{Config: Config{Spec: spec, Phis: phis, FewK: true, TopKOnly: true}}},
		{name: "samplek", ec: EngineConfig{Config: Config{Spec: spec, Phis: phis, FewK: true, SampleKOnly: true, Fraction: 0.25}}},
	}
	const keysPerRun, rounds = 50, 12

	full, chain := sha256.New(), sha256.New()
	var sawBurst, sawShort, sawSamples, sawTail bool
	for ri, r := range runs {
		r.ec.Shards = 2
		r.ec.ResultBuffer = 1 << 12
		eng, err := NewEngine(r.ec)
		if err != nil {
			t.Fatal(err)
		}
		done := drainResults(eng)
		rng := rand.New(rand.NewSource(int64(7700 + ri)))
		var cur ExportCursor
		for round := 0; round < rounds; round++ {
			for k := 0; k < keysPerRun; k++ {
				n := spec.Period
				if r.timed {
					n = 20 + rng.Intn(90) // always short of the count period
				} else if k%7 == 3 {
					n = 50 + rng.Intn(200) // unaligned reports straddle periods
				}
				vs := make([]float64, n)
				for i := range vs {
					vs[i] = 100 + 20*rng.NormFloat64()
					if rng.Intn(200) == 0 {
						vs[i] *= 4 // ordinary heavy tail
					}
				}
				if k%5 == 0 && round == 7 {
					for i := range vs { // one bursty sub-window per fifth key
						if i%3 == 0 {
							vs[i] = 5000 + 100*rng.Float64()
						}
					}
				}
				if err := eng.Push(fmt.Sprintf("%s/key-%03d", r.name, k), vs); err != nil {
					t.Fatal(err)
				}
			}
			if r.timed {
				settle(eng) // batches are stamped at delivery, so deliver before the clock moves
				clk.advance(time.Second)
				eng.Tick()
			}
			if round%3 == 2 {
				eng.Evict(fmt.Sprintf("%s/key-%03d", r.name, round)) // tombstones in the chain
			}
			var blob bytes.Buffer
			if _, err := eng.ExportDelta(&blob, &cur); err != nil {
				t.Fatal(err)
			}
			chain.Write(blob.Bytes())
		}
		var blob bytes.Buffer
		if _, err := eng.Export(&blob); err != nil {
			t.Fatal(err)
		}
		full.Write(blob.Bytes())
		eng.Close()
		<-done

		dec := wire.NewDecoder(bytes.NewReader(blob.Bytes()))
		for {
			_, sn, err := dec.Decode()
			if err != nil {
				break
			}
			for _, sm := range sn.Parts().Summaries {
				sawShort = sawShort || sm.Count() < spec.Period
				for mi := 0; mi < sm.Managed(); mi++ {
					sawTail = sawTail || len(sm.Tail(mi)) > 0
					values, _ := sm.Samples(mi)
					sawSamples = sawSamples || len(values) > 0
					sawBurst = sawBurst || sm.Bursty(mi)
				}
			}
		}
	}
	if !sawBurst || !sawShort || !sawSamples || !sawTail {
		t.Fatalf("run lost its coverage: burst=%v short=%v samples=%v tail=%v", sawBurst, sawShort, sawSamples, sawTail)
	}
	gotFull, gotChain := hex.EncodeToString(full.Sum(nil)), hex.EncodeToString(chain.Sum(nil))
	if gotFull != goldenExportSHA256 || gotChain != goldenDeltaSHA256 {
		t.Fatalf("export bytes changed:\n full  %s (want %s)\n delta %s (want %s)", gotFull, goldenExportSHA256, gotChain, goldenDeltaSHA256)
	}
}
