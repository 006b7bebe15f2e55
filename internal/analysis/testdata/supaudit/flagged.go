// Package supaudit exercises the suppression audit that VetModule runs
// after the analyzers: a //scip: token no analyzer recognises is a
// finding, and a known suppression that silences nothing is stale.
package supaudit

func unknownToken() int {
	x := 1 /*scip:bogus-ok no analyzer owns this token*/ // want "unknown //scip:bogus-ok"
	return x
}

func staleSuppression() int {
	y := 2 /*scip:ordered-ok justified once, but it silences nothing here*/ // want "stale suppression //scip:ordered-ok"
	return y
}
