package scenario

import (
	"strings"
	"testing"
)

// TestSpecValidate registers nothing: it hands validate one malformed spec
// per rule and checks that rule is the one that refuses it.
func TestSpecValidate(t *testing.T) {
	query := Step{Input: "break down by season", Expect: Expect{Speech: true}}
	ingest := Step{Ingest: &IngestSpec{Rows: 10, Seed: 1}}
	valid := func() *Spec {
		return &Spec{
			Name: "test/valid", Desc: "a well-formed spec", Class: ClassStream,
			Dataset: flights5k, Live: LiveSpec{SemCacheEntries: 8},
			Script: []Step{query, ingest, query},
		}
	}
	if err := valid().validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	cases := []struct {
		name  string
		spoil func(s *Spec)
		want  string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name required"},
		{"no desc", func(s *Spec) { s.Desc = "" }, "desc required"},
		{"no class", func(s *Spec) { s.Class = "" }, "class required"},
		{"unknown dataset", func(s *Spec) { s.Dataset.Name = "cars" }, "unknown dataset"},
		{"empty script", func(s *Spec) { s.Script = nil }, "empty script"},
		{"unknown method", func(s *Spec) { s.Script[0].Method = "best" }, "unknown method"},
		{"parse error and speech", func(s *Spec) { s.Script[0].Expect.ParseError = true }, "exclusive"},
		{"unknown servedBy", func(s *Spec) { s.Script[0].Expect.ServedBy = "oracle" }, "unknown ServedBy"},
		{"servedBy without speech", func(s *Spec) {
			s.Script[0].Expect = Expect{ServedBy: "cache"}
		}, "ServedBy requires Speech"},
		{"negative MinEpoch", func(s *Spec) { s.Script[2].Expect.MinEpoch = -1 }, "negative MinEpoch"},
		{"MinEpoch without speech", func(s *Spec) {
			s.Script[2].Expect = Expect{MinEpoch: 1}
		}, "MinEpoch requires Speech"},
		{"reload and ingest", func(s *Spec) {
			s.Script[1].Reload = &DatasetSpec{Name: "flights", Seed: 2}
		}, "Reload and Ingest are exclusive"},
		{"ingest step with input", func(s *Spec) { s.Script[1].Input = "drill down" }, "carries no input"},
		{"reload of unknown dataset", func(s *Spec) {
			s.Script[1] = Step{Reload: &DatasetSpec{Name: "cars"}}
		}, "reload of unknown dataset"},
		{"ingest on salaries", func(s *Spec) { s.Dataset = salariesStd }, "only supported on the flights dataset"},
		{"ingest with parallel sessions", func(s *Spec) { s.Parallel = 2 }, "single session"},
		{"ingest on the shared profile", func(s *Spec) { s.Live = LiveSpec{} }, "dedicated live profile"},
		{"reload on the shared profile", func(s *Spec) {
			s.Script[1] = Step{Reload: &DatasetSpec{Name: "flights", Seed: 2}}
			s.Live = LiveSpec{}
		}, "dedicated live profile"},
	}
	for _, c := range cases {
		s := valid()
		c.spoil(s)
		err := s.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
