package dimension

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// FromCSV builds a hierarchy from a definition file: the header row names
// the levels (coarse to fine), and every data row is one leaf path. The
// finest-level value doubles as the source-column value, exactly as with
// programmatic construction:
//
//	region,state,city
//	the North East,New York,New York City
//	the North East,Massachusetts,Boston
//	...
func FromCSV(name, column, context, rootName string, r io.Reader) (*Hierarchy, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dimension %q: reading definition header: %w", name, err)
	}
	levels := make([]string, len(header))
	copy(levels, header)
	h, err := NewHierarchy(name, column, context, rootName, levels)
	if err != nil {
		return nil, err
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dimension %q: reading definition line %d: %w", name, line+1, err)
		}
		line++
		if _, err := h.AddPath(rec...); err != nil {
			return nil, fmt.Errorf("definition line %d: %w", line, err)
		}
	}
	if len(h.MembersAt(1)) == 0 {
		return nil, fmt.Errorf("dimension %q: definition has no member rows", name)
	}
	return h, nil
}

// FromCSVFile opens path and calls FromCSV.
func FromCSVFile(name, column, context, rootName, path string) (*Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dimension %q: %w", name, err)
	}
	defer f.Close()
	return FromCSV(name, column, context, rootName, f)
}
