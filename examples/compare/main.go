// Compare: run all six policies side by side on the same bursty telemetry
// stream and print their Q0.999 estimates against the exact value — a
// compact reproduction of the paper's §1 argument that rank-error sketches
// lose the tail on skewed data.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	spec := qlove.Window{Size: 32_000, Period: 4_000}
	phis := []float64{0.5, 0.999}

	names := []string{"qlove-fewk", "exact", "cmqs", "am", "random", "moment"}
	mons := map[string]*qlove.Monitor{}
	for _, n := range names {
		var p qlove.Policy
		var err error
		if n == "qlove-fewk" {
			// Full-fraction few-k: each sub-window caches its entire
			// worst-case tail, so high quantiles stay exact under any
			// burst pattern (§4.2) at a tiny space cost.
			p, err = qlove.New(qlove.Config{Spec: spec, Phis: phis, FewK: true, Fraction: 1})
		} else {
			p, err = qlove.NewPolicy(n, spec, phis)
		}
		if err != nil {
			log.Fatal(err)
		}
		m, err := qlove.NewMonitor(p, spec)
		if err != nil {
			log.Fatal(err)
		}
		mons[n] = m
	}

	base := workload.Generate(workload.NewNetMon(7), 160_000)
	data := workload.InjectBursts(base, spec.Size, spec.Period, 0.999, 10)

	latest := map[string]qlove.Result{}
	window := make([]float64, 0, spec.Size)
	evalsSeen := 0
	for _, v := range data {
		window = append(window, v)
		if len(window) > spec.Size {
			window = window[1:]
		}
		ready := false
		for _, n := range names {
			if res, ok := mons[n].Push(v); ok {
				latest[n] = res
				ready = true
			}
		}
		if !ready {
			continue
		}
		evalsSeen++
		if evalsSeen%8 != 1 {
			continue // print every 8th evaluation
		}
		exactQ := qlove.ExactQuantiles(window, phis)
		fmt.Printf("eval %2d  exact Q0.999 = %8.0f\n", evalsSeen-1, exactQ[1])
		for _, n := range names {
			est := latest[n].Estimates[1]
			relErr := 0.0
			if exactQ[1] != 0 {
				relErr = (est - exactQ[1]) / exactQ[1] * 100
			}
			fmt.Printf("    %-10s %8.0f  (%+6.1f%%)  space=%d\n",
				n, est, relErr, mons[n].Policy().SpaceUsage())
		}
	}
}
