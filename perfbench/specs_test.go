package main

import "testing"

func TestSizeSeqSpreadsEveryStart(t *testing.T) {
	// Whatever the starts, 16 consecutive deals of a slot put 3 to 5 of
	// each parameter's values in each quarter of [0, 1).
	r := newRand(7, 0)
	for trial := 0; trial < 200; trial++ {
		s := newSizeSeq(r)
		var bins [len(sizeSteps)][4]int
		for n := 0; n < 16; n++ {
			for j, u := range s.next() {
				if u < 0 || u >= 1 {
					t.Fatalf("point %v outside [0, 1)", u)
				}
				bins[j][int(u*4)]++
			}
		}
		for j, b := range bins {
			for q, c := range b {
				if c < 3 || c > 5 {
					t.Fatalf("start %v, parameter %d: %d of 16 points in quarter %d", s.start, j, c, q)
				}
			}
		}
	}
}
