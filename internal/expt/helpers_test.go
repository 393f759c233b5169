package expt

// Accessors and oracles that only this package's tests use.

// Row returns the row for the named experiment, or nil.
func (r *TableIIResult) Row(name ExperimentName) *TableIIRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// App returns the row with the given name, or nil.
func (r *TableIIIResult) App(name string) *TableIIIApp {
	for i := range r.Apps {
		if r.Apps[i].Name == name {
			return &r.Apps[i]
		}
	}
	return nil
}
