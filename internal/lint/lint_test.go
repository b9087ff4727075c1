package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/core", true},
		{"repro/internal/simnet", true},
		{"repro/internal/hyparview", true},
		{"repro/internal/cyclon", true},
		{"repro/internal/stats", true},
		{"repro/internal/baselines", true},
		{"repro/internal/baselines/tag", true},
		{"repro/experiments", true},
		{"repro/internal/baselines/tag/x", false}, // entries do not cover subpackages
		{"internal/core", true},                   // fixture-style path
		{"repro/internal/livenet", false},
		{"repro/internal/wire", false},
		{"repro/internal/corex", false}, // no partial-segment matches
		{"repro", false},
		{"other", false},
	}
	for _, c := range cases {
		if got := IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestIsSorter(t *testing.T) {
	cases := []struct {
		pkg, name string
		want      bool
	}{
		{"slices", "Sort", true},
		{"sort", "Slice", true},
		{"repro/internal/ids", "Sort", true},
		{"internal/ids", "Sort", true},
		{"slices", "Reverse", false},
		{"myslices", "Sort", false},
	}
	for _, c := range cases {
		if got := IsSorter(c.pkg, c.name); got != c.want {
			t.Errorf("IsSorter(%q, %q) = %v, want %v", c.pkg, c.name, got, c.want)
		}
	}
}

func TestOrderAnnotations(t *testing.T) {
	src := `package p

func f(m map[int]int) {
	//brisa:orderinvariant deletes commute
	for k := range m {
		delete(m, k)
	}
	//brisa:orderinvariant
	for k := range m {
		delete(m, k)
	}
	//brisa:orderinvariantX not an annotation
	for k := range m {
		delete(m, k)
	}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	anns := OrderAnnotations(fset, file)
	if len(anns) != 2 {
		t.Fatalf("got %d annotations, want 2: %v", len(anns), anns)
	}
	if a, ok := anns[4]; !ok || a.Reason != "deletes commute" {
		t.Errorf("line 4: got %+v, ok=%v; want reason %q", a, ok, "deletes commute")
	}
	if a, ok := anns[8]; !ok || a.Reason != "" {
		t.Errorf("line 8: got %+v, ok=%v; want empty reason", a, ok)
	}
}
