package main

import (
	"fmt"
	"os"

	"holistic"
	"holistic/internal/tpch"
)

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// lineitem generates (and caches) lineitem samples.
var lineitemCache = map[int]*tpch.Lineitem{}

func lineitem(n int) *tpch.Lineitem {
	if l, ok := lineitemCache[n]; ok {
		return l
	}
	l := tpch.GenerateLineitem(n, *seed)
	lineitemCache[n] = l
	return l
}

func shipdateWindow(f holistic.Frame) *holistic.Window {
	return holistic.Over().OrderBy(holistic.Asc("l_shipdate")).Frame(f)
}

// quadraticBudget caps n·frameSize for the O(n·w) algorithms so runs stay
// bounded; beyond it the experiment prints "skip".
const quadraticBudget = 4e9
