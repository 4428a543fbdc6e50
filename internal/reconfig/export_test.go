package reconfig

// Start runs a hand-made plan as one operation, which ends with the
// plan, so the executor's tests can drive waves without a rolling
// upgrade around them. Returns ErrBusy while an operation is running.
func (e *Executor) Start(plan *Plan) error {
	if e.stats.Running {
		return ErrBusy
	}
	e.stats = Stats{Running: true, Start: e.env.Net.Now()}
	e.runPlan(plan, e.finish)
	return nil
}
