package experiments

import "repro/internal/service"

// runTrials executes n independent trials on a worker pool sized by
// s.Workers (0 = GOMAXPROCS) and appends every trial's rows to t in trial
// order, so scheduling can never reorder or interleave a table. Each trial
// derives all of its randomness from its index or from fixed seeds — never
// from state shared between trials — which makes every table byte-identical
// at any worker count.
//
// The first trial error (in trial order, not completion order) aborts the
// experiment, matching the old serial fail-fast behaviour deterministically.
func runTrials(s Scale, t *Table, n int, trial func(i int) ([][]any, error)) error {
	pool := service.NewPool(s.Workers)
	defer pool.Close()
	rows := make([][][]any, n)
	errs := make([]error, n)
	if err := pool.Run(n, func(i int, _ *service.Worker) {
		rows[i], errs[i] = trial(i)
	}); err != nil {
		return err // unreachable for this private pool, but keep the contract
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, rs := range rows {
		for _, r := range rs {
			t.AddRow(r...)
		}
	}
	return nil
}

// one wraps a single table row as a trial result.
func one(cells ...any) [][]any { return [][]any{cells} }
