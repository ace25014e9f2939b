package core

import "repro/internal/core/fewk"

// Online budget adaptation (§4.3 notes that "several decisions made for
// traffic handling are guided by empirical study or parameters measured
// offline. Future work includes integrating these processes entirely
// online"). When Config.Adaptive is set, the policy tunes the few-k
// fraction at runtime: sustained distress — a detected burst, or a top-k
// pool too shallow to reach its read rank — grows the per-sub-window
// budget multiplicatively (up to the exact tail size), and calm periods
// decay it back toward the configured floor. New budgets apply to
// sub-windows sealed after the change; resident summaries keep the caches
// they were built with.

const (
	adaptGrow  = 1.5 // budget multiplier under distress
	adaptDecay = 0.9 // budget multiplier per calm evaluation
)

// adaptState tracks the controller per managed quantile.
type adaptState struct {
	fraction float64 // current fraction, in [floor, 1]
	floor    float64 // the configured fraction
}

// initAdaptive sets up controller state after budgets are planned.
func (p *Policy) initAdaptive() {
	cfg := &p.sh.cfg
	if !cfg.Adaptive || len(p.sh.managed) == 0 {
		return
	}
	p.adapt = make([]adaptState, len(p.sh.managed))
	for i := range p.adapt {
		p.adapt[i] = adaptState{fraction: cfg.Fraction, floor: cfg.Fraction}
	}
}

// observeDistress updates the controller for managed quantile mi after an
// evaluation and replans its budget when the fraction moved.
func (p *Policy) observeDistress(mi int, distress bool) {
	if p.adapt == nil {
		return
	}
	st := &p.adapt[mi]
	old := st.fraction
	if distress {
		st.fraction *= adaptGrow
		if st.fraction > 1 {
			st.fraction = 1
		}
	} else {
		st.fraction *= adaptDecay
		if st.fraction < st.floor {
			st.fraction = st.floor
		}
	}
	if st.fraction == old {
		return
	}
	cfg := &p.sh.cfg
	b, err := fewk.PlanBudget(cfg.Spec.Size, cfg.Spec.Period, cfg.Phis[p.sh.managed[mi]], st.fraction)
	if err != nil {
		return // keep the previous plan; fraction stays for next round
	}
	p.budgets[mi] = splitBudget(*cfg, b)
}

// poolShallow reports whether the merged top-k pool for managed quantile
// mi cannot reach its read rank — the budget-undershoot distress signal.
func (p *Policy) poolShallow(mi int) bool {
	rank := fewk.ExactTailSize(p.sh.cfg.Spec.Size, p.sh.cfg.Phis[p.sh.managed[mi]])
	total := 0
	for i := range p.agg.summaries {
		tail, below := p.agg.summaries[i].cached(mi)
		if total += len(tail) + len(below); total >= rank {
			return false
		}
	}
	return true
}
