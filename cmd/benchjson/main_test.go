package main

import (
	"strings"
	"testing"
)

func TestPrintFamilies(t *testing.T) {
	prev := []familyEntry{{Name: "BenchmarkSoundness", GeomeanSpeedup: 4}, {Name: "BenchmarkGone", GeomeanSpeedup: 2}}
	cur := []familyEntry{{Name: "BenchmarkNew", GeomeanSpeedup: 1}, {Name: "BenchmarkSoundness", GeomeanSpeedup: 3}}
	var b strings.Builder
	printFamilies(&b, cur, prev)
	want := "benchjson: BenchmarkNew: 1.00x (no previous value)\n" +
		"benchjson: BenchmarkSoundness: 3.00x vs previous 4.00x (-25%)\n"
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
}
