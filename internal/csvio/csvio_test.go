package csvio

import (
	"bytes"
	"strings"
	"testing"

	"holistic/internal/core"
)

func TestTypeInference(t *testing.T) {
	src := `i,f,d,s,mixed
1,1.5,2024-01-01,abc,1
-2,2,2024-02-29,def,
3,.25,1969-12-31,7up,2.5
`
	f, err := Read(strings.NewReader(src))
	table := f.Table
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows() != 3 {
		t.Fatalf("rows = %d", table.Rows())
	}
	if k := table.Column("i").Kind(); k != core.Int64 {
		t.Fatalf("i inferred as %v", k)
	}
	if k := table.Column("f").Kind(); k != core.Float64 {
		t.Fatalf("f inferred as %v", k)
	}
	if k := table.Column("d").Kind(); k != core.Int64 {
		t.Fatalf("d (dates) inferred as %v", k)
	}
	if k := table.Column("s").Kind(); k != core.String {
		t.Fatalf("s inferred as %v", k)
	}
	// "mixed" holds 1 and 2.5 -> float, with a NULL in between.
	if k := table.Column("mixed").Kind(); k != core.Float64 {
		t.Fatalf("mixed inferred as %v", k)
	}
	if !table.Column("mixed").IsNull(1) {
		t.Fatal("empty cell must be NULL")
	}
	if table.Column("i").Int64(1) != -2 {
		t.Fatal("int parse wrong")
	}
	// Dates become day numbers; 1969-12-31 is day -1.
	if table.Column("d").Int64(2) != -1 {
		t.Fatalf("date day = %d, want -1", table.Column("d").Int64(2))
	}
}

func TestDateHelpers(t *testing.T) {
	day, err := DateToDay("1970-01-02")
	if err != nil || day != 1 {
		t.Fatalf("DateToDay = (%d, %v)", day, err)
	}
	if got := DayToDate(day); got != "1970-01-02" {
		t.Fatalf("DayToDate = %q", got)
	}
	for _, d := range []string{"1970-01-01", "2000-02-29", "1992-06-11", "2038-01-19"} {
		day, err := DateToDay(d)
		if err != nil {
			t.Fatal(err)
		}
		if DayToDate(day) != d {
			t.Fatalf("round trip of %s failed: %s", d, DayToDate(day))
		}
	}
}

func TestRoundTrip(t *testing.T) {
	table := core.MustNewTable(
		core.NewInt64Column("a", []int64{1, 2, 0}, []bool{false, false, true}),
		core.NewFloat64Column("b", []float64{1.25, 0, -3}, []bool{false, true, false}),
		core.NewStringColumn("c", []string{"x", "y,z", `qu"ote`}, nil),
		core.NewBoolColumn("d", []bool{true, false, true}, nil),
	)
	var buf bytes.Buffer
	if err := Write(&buf, table, nil); err != nil {
		t.Fatal(err)
	}
	bf, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := bf.Table
	if back.Rows() != 3 {
		t.Fatalf("rows = %d", back.Rows())
	}
	if !back.Column("a").IsNull(2) || back.Column("a").Int64(1) != 2 {
		t.Fatal("int column round trip failed")
	}
	if !back.Column("b").IsNull(1) || back.Column("b").Float64(0) != 1.25 {
		t.Fatal("float column round trip failed")
	}
	if back.Column("c").StringAt(1) != "y,z" || back.Column("c").StringAt(2) != `qu"ote` {
		t.Fatal("string quoting round trip failed")
	}
	// Bools come back as strings ("true"/"false") — CSV has no bool type.
	if back.Column("d").Kind() != core.String || back.Column("d").StringAt(0) != "true" {
		t.Fatal("bool rendering failed")
	}
}

func TestEmptyAndErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail")
	}
	// Header only: zero-row table with string columns (no data to infer).
	f2, err := Read(strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Table.Rows() != 0 || f2.Table.Column("a") == nil {
		t.Fatal("header-only input mishandled")
	}
	// Ragged rows are a CSV error.
	if _, err := Read(strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged input must fail")
	}
}

func TestAllNullColumnDefaultsToString(t *testing.T) {
	// encoding/csv skips blank lines, so anchor the empty column with a
	// second, populated one.
	f3, err := Read(strings.NewReader("a,b\n,1\n,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	table3 := f3.Table
	if table3.Rows() != 2 {
		t.Fatalf("rows = %d", table3.Rows())
	}
	if table3.Column("a").Kind() != core.String {
		t.Fatalf("all-empty column inferred as %v", table3.Column("a").Kind())
	}
	if !table3.Column("a").IsNull(0) || !table3.Column("a").IsNull(1) {
		t.Fatal("empty cells must stay NULL")
	}
}

func TestDateColumnsRenderAsDates(t *testing.T) {
	src := "d,v\n1995-06-22,1\n1995-05-09,2\n"
	f, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !f.DateColumns["d"] || f.DateColumns["v"] {
		t.Fatalf("date detection wrong: %v", f.DateColumns)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f.Table, f.DateColumns); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != src {
		t.Fatalf("date round trip:\n%q !=\n%q", got, src)
	}
}

func TestMalformedInputErrorsNotPanics(t *testing.T) {
	cases := []string{
		"a,b\n\"unterminated,1\n", // unclosed quote
		"a,b\n1,2,3\n",            // too many fields
		"a,b\n1,2\n3\n",           // too few fields mid-file
		"a\"b,c\n1,2\n",           // bare quote in header
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

func TestNullRoundTripAllKinds(t *testing.T) {
	src := "i,f,s,d\n" +
		"1,1.5,x,2024-03-01\n" +
		",,,\n" + // all NULL row
		"3,2.5,z,2024-03-03\n"
	f, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i", "f", "s", "d"} {
		col := f.Table.Column(name)
		if !col.IsNull(1) {
			t.Errorf("column %s row 1 not NULL", name)
		}
		if col.IsNull(0) || col.IsNull(2) {
			t.Errorf("column %s has spurious NULLs", name)
		}
	}
	if f.Table.Column("i").Kind() != core.Int64 ||
		f.Table.Column("f").Kind() != core.Float64 ||
		f.Table.Column("s").Kind() != core.String ||
		!f.DateColumns["d"] {
		t.Fatal("kinds not preserved around NULL row")
	}
	var buf bytes.Buffer
	if err := Write(&buf, f.Table, f.DateColumns); err != nil {
		t.Fatal(err)
	}
	if buf.String() != src {
		t.Fatalf("NULL round trip:\n%q !=\n%q", buf.String(), src)
	}
}

func TestInferenceConflictsDowngrade(t *testing.T) {
	// A type conflict downgrades the column to the widest type that still
	// parses every value — never an error, never a panic.
	cases := []struct {
		src  string
		want core.Kind
	}{
		{"c\n1\n2.5\n", core.Float64},                // int then float
		{"c\n1\nabc\n", core.String},                 // int then word
		{"c\n2024-01-01\n5\n", core.String},          // date then int
		{"c\n2024-01-01\n2024-13-99\n", core.String}, // date then bad date
		{"c\n9223372036854775807\n", core.Int64},     // max int64 stays int
		{"c\n9223372036854775808\n", core.Float64},   // overflow falls to float
		{"c\n1e3\n2\n", core.Float64},                // scientific notation
	}
	for _, tc := range cases {
		f, err := Read(strings.NewReader(tc.src))
		if err != nil {
			t.Errorf("Read(%q): %v", tc.src, err)
			continue
		}
		if got := f.Table.Column("c").Kind(); got != tc.want {
			t.Errorf("Read(%q): inferred %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestBuildColumnsErrorContext(t *testing.T) {
	// Strict parsing under fixed flags (the ingest worker path) must report
	// the offending cell as `line N, column "x"`.
	header := []string{"a", "v"}
	rows := [][]string{{"1", "x"}, {"oops", "y"}}
	flags := []ColFlags{{IsInt: true, SawValue: true}, {SawValue: true}}
	_, _, err := BuildColumns(header, rows, flags, nil)
	if err == nil {
		t.Fatal("contradicting cell must error")
	}
	if !strings.Contains(err.Error(), `line 3, column "a"`) {
		t.Fatalf("error %q lacks line/column context", err)
	}
	// An explicit line table overrides the default numbering.
	_, _, err = BuildColumns(header, rows, flags, []int{10, 42})
	if err == nil || !strings.Contains(err.Error(), `line 42, column "a"`) {
		t.Fatalf("error %q ignores the line table", err)
	}
	// Same contract for dates and floats.
	dflags := []ColFlags{{IsDate: true, SawValue: true}, {SawValue: true}}
	_, _, err = BuildColumns(header, [][]string{{"2024-13-99", "x"}}, dflags, nil)
	if err == nil || !strings.Contains(err.Error(), `line 2, column "a"`) {
		t.Fatalf("date error %q lacks context", err)
	}
	fflags := []ColFlags{{IsFloat: true, SawValue: true}}
	_, _, err = BuildColumns(header[:1], [][]string{{"1.5"}, {"nope"}}, fflags, nil)
	if err == nil || !strings.Contains(err.Error(), `line 3, column "a"`) {
		t.Fatalf("float error %q lacks context", err)
	}
	if _, _, err := BuildColumns(header, rows, flags[:1], nil); err == nil {
		t.Fatal("flag/header arity mismatch must error")
	}
}

func TestColFlagsMerge(t *testing.T) {
	// Merging per-chunk inference states must equal inferring over the
	// concatenation — the property the two-phase ingester relies on.
	chunks := [][]string{{"1", "2"}, {"3.5", ""}}
	whole := NewColFlags()
	merged := NewColFlags()
	first := true
	for _, ch := range chunks {
		part := NewColFlags()
		for _, v := range ch {
			part.Observe(v)
			whole.Observe(v)
		}
		if first {
			merged, first = part, false
		} else {
			merged.Merge(part)
		}
	}
	if merged != whole {
		t.Fatalf("merged %+v != whole-scan %+v", merged, whole)
	}
	if merged.IsInt || !merged.IsFloat || merged.IsDate || !merged.SawValue {
		t.Fatalf("unexpected inference outcome %+v", merged)
	}
}

func TestDuplicateHeaderErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Fatal("duplicate header must error, not shadow a column")
	}
}

// TestAppendCell checks the append form against the string form for every
// kind: it appends after what dst already holds, NULL appends nothing, and
// the date flag only ever acts on INT64.
func TestAppendCell(t *testing.T) {
	nulls := []bool{false, true}
	cols := []*core.Column{
		core.NewInt64Column("i", []int64{-19723, 7}, nulls),
		core.NewFloat64Column("f", []float64{-0.5, 7}, nulls),
		core.NewStringColumn("s", []string{`a,"b"`, "x"}, nulls),
		core.NewBoolColumn("b", []bool{true, false}, nulls),
	}
	for _, col := range cols {
		for _, date := range []bool{false, true} {
			want := formatCell(col, 0, false)
			if date && col.Kind() == core.Int64 {
				want = DayToDate(col.Int64(0))
			}
			if got := string(AppendCell([]byte("k="), col, 0, date)); got != "k="+want {
				t.Fatalf("AppendCell(%s, date=%v) = %q, want %q", col.Name(), date, got, "k="+want)
			}
			if got := string(AppendCell([]byte("k="), col, 1, date)); got != "k=" {
				t.Fatalf("AppendCell(%s) of a NULL = %q, want nothing appended", col.Name(), got)
			}
		}
	}
	if got := string(AppendDate(nil, -19723)); got != "1916-01-02" {
		t.Fatalf("AppendDate(-19723) = %q", got)
	}
}
