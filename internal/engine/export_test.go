package engine

// SetRunStamp forces the arena's region run stamp, so a test can drive
// reset across the uint32 wrap without four billion runs.
func (a *Arena) SetRunStamp(run uint32) { a.run = run }

// WideSelects returns the number of rounds of the last run whose select
// phase ran on two or more non-empty BS ranges.
func (a *Arena) WideSelects() int { return a.wideSelects }

// WideSelects returns the same count over the whole session so far.
func (inc *Incremental) WideSelects() int { return inc.a.wideSelects }
