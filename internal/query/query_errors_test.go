package query

import (
	"errors"
	"testing"
	"time"

	"propeller/internal/perr"
)

var errNow = time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)

// TestParseErrorTaxonomy asserts that every class of malformed predicate
// fails with both the package sentinel (ErrSyntax) and the public taxonomy
// (perr.ErrBadQuery) in the chain.
func TestParseErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty query", ""},
		{"only ampersands", " & & "},
		{"no operator", "size"},
		{"missing literal", "size>"},
		{"leading operator", ">1m"},
		{"bad size unit", "size>1zb"},
		{"size not a number", "size>big"},
		{"bad age unit", "mtime<5parsecs"},
		{"age without unit", "mtime<5"},
		{"bad uid", "uid=abc"},
		{"empty keyword value", "keyword:"},
		{"unclosed paren", "(size>1m"},
		{"paren in field", "size)>1m"},
		{"quoted field", `"size">1m`},
		{"second term malformed", "size>1m & mtime<"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.input, errNow)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.input)
			}
			if !errors.Is(err, ErrSyntax) {
				t.Errorf("Parse(%q) err = %v, want ErrSyntax in chain", c.input, err)
			}
			if !errors.Is(err, perr.ErrBadQuery) {
				t.Errorf("Parse(%q) err = %v, want perr.ErrBadQuery in chain", c.input, err)
			}
		})
	}
}

// TestValidFieldStillAcceptsRealFields guards against over-tight field
// validation: every attribute name in the test corpus must keep parsing.
func TestValidFieldStillAcceptsRealFields(t *testing.T) {
	for _, input := range []string{
		"size>16m", "mtime<1day", "uid=1000", "keyword:firefox",
		"binding<-9", "torsion<1.5", "x<5 & y<5", "path>=/data/",
		"my_field=3", "my-field=3", "ns.field=3", "Size>1k",
	} {
		if _, err := Parse(input, errNow); err != nil {
			t.Errorf("Parse(%q) = %v, want success", input, err)
		}
	}
}
