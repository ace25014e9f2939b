package loadgen

import (
	"context"
	"fmt"
	"time"
)

// RampConfig parameterizes a stepped search for the maximum sustainable
// rate under an SLA: offered load starts at Start and grows ×Factor each
// step until a step violates the p99 SLA or diverges, or Max is reached.
type RampConfig struct {
	// Start is the first step's offered rate (ops/s).
	Start float64
	// Factor multiplies the rate between steps; it must exceed 1.
	Factor float64
	// Max caps the offered rate; the ramp stops after measuring it.
	Max float64
	// StepDuration is each step's arrival span.
	StepDuration time.Duration
	// SLA is the p99-latency target a sustainable step must meet.
	SLA time.Duration
	// Divergence is the tolerated offered-vs-completed shortfall fraction
	// (Result.Overloaded); default 0.05.
	Divergence float64
	// Mix, Seed, MaxInFlight and Grace are passed to each step's Run.
	Mix         Mix
	Seed        int64
	MaxInFlight int
	Grace       time.Duration
}

// Step is one measured ramp step.
type Step struct {
	Result
	// Sustainable reports whether the step met the SLA and did not diverge.
	Sustainable bool `json:"sustainable"`
	// Reason says why an unsustainable step failed ("" when sustainable).
	Reason string `json:"reason,omitempty"`
}

// RampResult reports the whole ramp.
type RampResult struct {
	// SLA echoes the p99 target the steps were gated on.
	SLA time.Duration `json:"sla_p99_ns"`
	// Steps holds every measured step in offered-rate order.
	Steps []Step `json:"steps"`
	// MaxSustainable is the highest offered rate whose step was
	// sustainable (0 when even the first step failed).
	MaxSustainable float64 `json:"max_sustainable_rps"`
}

// Ramp runs the stepped search against t. Every step is measured with the
// same seed-derived arrival process and mix; the target keeps its state
// across steps (a warmed engine is the realistic subject — rerun against a
// fresh Target for cold-start curves). ctx aborts between and within
// steps.
func Ramp(ctx context.Context, cfg RampConfig, t Target) (RampResult, error) {
	if cfg.Start <= 0 {
		return RampResult{}, fmt.Errorf("loadgen: ramp start rate %v must be positive", cfg.Start)
	}
	if cfg.Factor <= 1 {
		return RampResult{}, fmt.Errorf("loadgen: ramp factor %v must exceed 1", cfg.Factor)
	}
	if cfg.Max < cfg.Start {
		return RampResult{}, fmt.Errorf("loadgen: ramp max %v below start %v", cfg.Max, cfg.Start)
	}
	if cfg.StepDuration <= 0 {
		return RampResult{}, fmt.Errorf("loadgen: ramp step duration %v must be positive", cfg.StepDuration)
	}
	if cfg.SLA <= 0 {
		return RampResult{}, fmt.Errorf("loadgen: ramp SLA %v must be positive", cfg.SLA)
	}
	div := cfg.Divergence
	if div <= 0 {
		div = 0.05
	}
	out := RampResult{SLA: cfg.SLA}
	for rate, step := cfg.Start, 0; ; step++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		r, err := Run(ctx, Config{
			Rate:        rate,
			Duration:    cfg.StepDuration,
			Mix:         cfg.Mix,
			Seed:        cfg.Seed + int64(step), // fresh arrivals per step, still deterministic
			MaxInFlight: cfg.MaxInFlight,
			Grace:       cfg.Grace,
		}, t)
		if err != nil {
			return out, err
		}
		s := Step{Result: r, Sustainable: true}
		if r.Overloaded(div) {
			s.Sustainable = false
			s.Reason = fmt.Sprintf("accepted %.0f/s diverged from offered %.0f/s (completed %d+%d errs+%d abandoned of %d)",
				r.CompletedRate, r.Rate, r.Completed, r.Errors, r.Abandoned, r.Offered)
		} else if r.P99 > cfg.SLA {
			s.Sustainable = false
			s.Reason = fmt.Sprintf("p99 %v exceeds SLA %v", r.P99.Round(time.Microsecond), cfg.SLA)
		}
		out.Steps = append(out.Steps, s)
		if !s.Sustainable {
			return out, nil
		}
		out.MaxSustainable = rate // rates only grow
		if rate >= cfg.Max {
			return out, nil
		}
		if rate *= cfg.Factor; rate > cfg.Max {
			rate = cfg.Max
		}
	}
}
