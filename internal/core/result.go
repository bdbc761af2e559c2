package core

// Result holds the window functions' output columns, in the original row
// order of the input table.
type Result struct {
	table *Table
}

// Column returns the output column produced under the given name.
func (r *Result) Column(name string) *Column { return r.table.Column(name) }

// Table returns all output columns as a table.
func (r *Result) Table() *Table { return r.table }
