// Package tops implements the TOPS (Trajectory-aware Optimal Placement of
// Services) problem of the paper: preference functions, the site↔trajectory
// round-trip distance index, covering sets, the exact branch-and-bound
// optimizer, the INC-GREEDY heuristic with its FM-sketch acceleration, and
// the problem variants of §7 (cost budget, capacity, existing services,
// β-coverage).
package tops

import (
	"fmt"
	"math"
)

// Preference is the user-specified preference function ψ of Definition 2:
// ψ(T_j, s_i) = F(dr(T_j, s_i)) when dr <= Tau and 0 otherwise, where F is
// non-increasing. Scores are normalized to [0,1] except for the TOPS3
// deviation-minimizing variant, which uses negative distances by design.
type Preference struct {
	// Tau is the coverage threshold τ in kilometres; beyond it the score
	// is exactly zero.
	Tau float64
	// F maps a round-trip detour (<= Tau) to a score. Must be
	// non-increasing. F == nil means the binary function (score 1).
	F func(dr float64) float64
	// Name tags the function in experiment output.
	Name string
	// Lambda is the decay rate of ExpDecay (zero for the other families):
	// what the wire form carries for it, since F cannot be inspected.
	Lambda float64
}

// Score evaluates ψ for a detour distance.
func (p Preference) Score(dr float64) float64 {
	if dr > p.Tau || math.IsInf(dr, 1) || math.IsNaN(dr) {
		return 0
	}
	if p.F == nil {
		return 1
	}
	return p.F(dr)
}

// Validate performs a sampled monotonicity check of F over [0, Tau]. It
// exists so query entry points can reject increasing preference functions,
// which would break the submodularity guarantees.
func (p Preference) Validate() error {
	if p.Tau < 0 || math.IsNaN(p.Tau) {
		return fmt.Errorf("tops: negative coverage threshold %v", p.Tau)
	}
	if p.F == nil || p.Tau == 0 {
		return nil
	}
	// An unbounded threshold (TOPS3) is sampled over a representative
	// finite range instead; Inf·0 would otherwise produce NaN probes.
	span := p.Tau
	if math.IsInf(span, 1) {
		span = 1e4
	}
	const samples = 64
	prev := math.Inf(1)
	for i := 0; i <= samples; i++ {
		v := p.F(span * float64(i) / samples)
		if math.IsNaN(v) {
			return fmt.Errorf("tops: preference function returns NaN")
		}
		if v > prev+1e-12 {
			return fmt.Errorf("tops: preference function increases near dr=%v", p.Tau*float64(i)/samples)
		}
		prev = v
	}
	return nil
}

// Binary is the binary instance of Definition 3 (TOPS1): a trajectory is
// covered or it is not. This is the variant the paper benchmarks most.
func Binary(tau float64) Preference {
	return Preference{Tau: tau, F: nil, Name: "binary"}
}

// Linear decays linearly from 1 at zero detour to 0 at τ.
func Linear(tau float64) Preference {
	return Preference{
		Tau:  tau,
		F:    func(d float64) float64 { return 1 - d/tau },
		Name: "linear",
	}
}

// ConvexQuadratic is (1 - d/τ)², a convex decreasing probability model of
// the kind used by the market-size variant TOPS2 [Berman et al.].
func ConvexQuadratic(tau float64) Preference {
	return Preference{
		Tau: tau,
		F: func(d float64) float64 {
			v := 1 - d/tau
			return v * v
		},
		Name: "convex-quadratic",
	}
}

// ExpDecay is exp(-λ·d) truncated at τ.
func ExpDecay(tau, lambda float64) Preference {
	return Preference{
		Tau:    tau,
		F:      func(d float64) float64 { return math.Exp(-lambda * d) },
		Name:   "exp-decay",
		Lambda: lambda,
	}
}

// PreferenceByName lowers the serving tiers' wire form of a preference —
// (name, τ, λ), with "" meaning binary and λ = 0 meaning the exp default of
// 1 — to the function it names. Every entry point that accepts a named
// preference (/v1/query on topsserve and topsrouter, the shard wire, the
// CLI) lowers through here, so one name is one function everywhere.
func PreferenceByName(name string, tau, lambda float64) (Preference, error) {
	var pref Preference
	switch name {
	case "", "binary":
		pref = Binary(tau)
	case "linear":
		pref = Linear(tau)
	case "convex":
		pref = ConvexQuadratic(tau)
	case "exp":
		if lambda == 0 {
			lambda = 1
		}
		if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda <= 0 {
			return Preference{}, fmt.Errorf("lambda = %v must be a positive finite number", lambda)
		}
		return ExpDecay(tau, lambda), nil
	default:
		return Preference{}, fmt.Errorf("unknown preference %q (want binary, linear, convex or exp)", name)
	}
	if lambda != 0 {
		return Preference{}, fmt.Errorf("lambda applies only to the exp preference")
	}
	return pref, nil
}

// NegativeDistance is the TOPS3 deviation-minimizing preference: the score
// is -dr with an unbounded threshold, so maximizing total utility minimizes
// total user deviation (§7.4). Scores are not in [0,1] by design.
func NegativeDistance() Preference {
	return Preference{
		Tau:  math.Inf(1),
		F:    func(d float64) float64 { return -d },
		Name: "negative-distance",
	}
}
