package segment

import (
	"fmt"

	"holistic/internal/core"
)

// Column loads one column of one segment, verifying each block's CRC as
// it is read, through the block-decode loop Dir.File runs over a whole
// dataset. The tests use it to check a single segment file.
func (r *Reader) Column(name string) (*core.Column, error) {
	for i := range r.man.Columns {
		if meta := &r.man.Columns[i]; meta.Name == name {
			c := newColumn(meta.Encoding, r.man.Rows)
			if err := r.decode(meta, c, 0); err != nil {
				return nil, err
			}
			return c.column(name), nil
		}
	}
	return nil, fmt.Errorf("segment: %s: no column %q", r.path, name)
}
