package env

// Trajectory is one recorded episode: the choice sequence, the constraint it
// is associated with, and the evaluated outcome under that constraint.
type Trajectory struct {
	Choices    []int
	Constraint Constraint
	Outcome    Outcome
}

// Relabel produces the hindsight-relabeled trajectory: the goal dimension of
// the constraint is replaced by what the episode actually achieved (GCSL's
// "relabel them using hindsight to be optimal for the goals that were
// actually reached"). Network conditions are kept — they are the task, not
// the goal. The outcome is re-evaluated under the relabeled constraint so
// the stored reward is consistent.
func (e *Env) Relabel(tr Trajectory) (Trajectory, error) {
	c := tr.Constraint
	switch c.Type {
	case LatencySLO:
		// Tightest satisfied latency goal = achieved latency (rounded up a
		// hair to avoid float boundary misses).
		c.LatencyMs = tr.Outcome.LatencyMs * 1.0001
	case AccuracySLO:
		c.AccuracyPct = tr.Outcome.AccuracyPct * 0.9999
	}
	d, err := e.Decode(tr.Choices)
	if err != nil {
		return Trajectory{}, err
	}
	out, err := e.Evaluate(c, d)
	if err != nil {
		return Trajectory{}, err
	}
	return Trajectory{Choices: tr.Choices, Constraint: c, Outcome: out}, nil
}
