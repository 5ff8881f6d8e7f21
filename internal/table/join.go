package table

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Join materializes a dimension-table attribute as a string column of the
// fact table, the paper's "joining fact table entries with indexed dimension
// tables" done once at load: row i of the result holds attr's value for
// dimension row fk[i]. fk holds 0-based row ids into the dimension table;
// a key out of range is an error naming the first offending fact row.
//
// The result shares attr's dictionary, clipped to its length, so a value
// appended to the joined column moves it to a dictionary of its own and
// never writes into attr's; the value index is copied for the same reason.
func Join(name string, fk *Int64Column, attr *StringColumn) (*StringColumn, error) {
	if fk == nil || attr == nil {
		return nil, errors.New("table: join needs fact and dimension columns")
	}
	codes := make([]int32, len(fk.values))
	for i, key := range fk.values {
		if key < 0 || key >= int64(len(attr.codes)) {
			return nil, fmt.Errorf("table: join %q: fact row %d references dimension row %d of %d",
				name, i, key, len(attr.codes))
		}
		codes[i] = attr.codes[key]
	}
	return &StringColumn{name: name, codes: codes, dict: slices.Clip(attr.dict), index: maps.Clone(attr.index)}, nil
}
