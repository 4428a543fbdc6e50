package reconfig

// Start runs a hand-made plan as one operation, so the executor's tests
// can drive waves without a rolling upgrade around them. Returns ErrBusy
// while an operation is running.
func (e *Executor) Start(plan *Plan) error {
	if e.stats.Running {
		return ErrBusy
	}
	e.begin(0)
	e.runPlan(plan)
	return nil
}
