package core

import "time"

// PhaseEvent reports one completed phase of a solver run to a PhaseObserver:
// what ran, how long it took on the wall clock, and what it cost in the
// paper's CONGEST measure (rounds, and measured messages where the phase ran
// on the simulator rather than being charged analytically).
//
// Phases emitted per solver:
//
//	Solve2ECSS:             mst, tap
//	SolveKECSS:             validate, mst, cut-enum (per level),
//	                        augment (per level), audit (k >= 4)
//	Solve3ECSSUnweighted:   validate, base, base-label, augment, correction,
//	                        rebalance (only when Rebalance triggers)
//	Solve3ECSSWeighted:     validate, base, base-label, augment, correction,
//	                        rebalance (only when Rebalance triggers)
//	EnumerateMinCutsOpts:   ks-sweep, ks-materialise (Karger–Stein, size
//	                        >= 4 only, via CutEnumOptions.Phase; nested
//	                        inside cut-enum when Aug forwards its observer)
//
// The exact size-3 enumeration (cycle-space labels) emits no event of its
// own: at level 4 its time is the cut-enum span's self time, together with
// Aug's λ check.
//
// Validate events fire only when the solver itself runs the connectivity
// check; callers that pre-validate (kecss.Pool sweeps set SkipValidation)
// see no validate phase.
type PhaseEvent struct {
	// Phase names the phase (see above).
	Phase string
	// Level is the augmentation level for level-scoped phases of SolveKECSS
	// (cut-enum, augment), 0 otherwise.
	Level int
	// Start is when the phase began (carries this process's monotonic
	// reading, so Start/Duration pairs from one solve are totally ordered).
	Start time.Time
	// Duration is the phase's wall-clock duration.
	Duration time.Duration
	// Rounds is the phase's charged/measured CONGEST round count.
	Rounds int64
	// Messages is the simulator-measured message count, for phases that ran
	// real message passing (simulated MST, cycle-space label scans); 0 for
	// analytically charged phases.
	Messages int64
	// Iterations is the phase's sampling-iteration count (augment, tap).
	Iterations int
	// Items is the phase-specific size: cuts enumerated (cut-enum), edges
	// added (augment, tap, mst, base), corrections (correction).
	Items int
}

// PhaseObserver receives PhaseEvents during a solve. Observers run
// synchronously on the solving goroutine and must be cheap; a nil observer
// costs nothing (solvers check for nil before capturing any timestamps, so
// the disabled hook adds no allocations to the hot path).
type PhaseObserver func(PhaseEvent)

// phaseStart captures a phase start time only when an observer is
// installed; the zero time it returns otherwise is never read.
func (o PhaseObserver) phaseStart() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now() //kecss:nondeterministic-ok phase timings feed observer telemetry only, never solver output
}

// emit delivers the event, filling Duration from Start. No-op when nil.
func (o PhaseObserver) emit(ev PhaseEvent) {
	if o == nil {
		return
	}
	ev.Duration = time.Since(ev.Start) //kecss:nondeterministic-ok durations feed observer telemetry only, never solver output
	o(ev)
}
