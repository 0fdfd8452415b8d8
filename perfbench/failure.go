package main

import (
	"fmt"
	"net/http"
)

// class is the outcome class of one attempted operation.
type class int

const (
	classOK class = iota
	// classStatus is a non-2xx answer, 503 "overloaded" included.
	classStatus
	// classTransport is a connection, write or read error the benchmark
	// did not cause.
	classTransport
	// classWrong is a 2xx answer or a simulated product that fails its
	// output oracle.
	classWrong
	// classCutoff is an operation abandoned by the benchmark's own drain
	// deadline. It is neither attempted nor failed: the system was not
	// given the chance to answer.
	classCutoff
	numClasses
)

var classNames = [numClasses]string{"ok", "status", "transport", "wrong_output", "cutoff"}

func (c class) String() string { return classNames[c] }

// classify maps one HTTP exchange to its class before the body is checked.
// ctxErr is the error of the context the benchmark issued the request
// under: a transport error after the benchmark cancelled that context is a
// cutoff, any other one is a real failure.
func classify(ctxErr, err error, status int) class {
	switch {
	case err != nil && ctxErr != nil:
		return classCutoff
	case err != nil:
		return classTransport
	case status < http.StatusOK || status >= http.StatusMultipleChoices:
		return classStatus
	}
	return classOK
}

// tally counts outcomes by class.
type tally [numClasses]int

func (t *tally) add(c class) { t[c]++ }

// attempted counts every operation the system got to answer.
func (t tally) attempted() int { return t.failed() + t[classOK] }

// failed counts the attempted operations that did not end correctly.
func (t tally) failed() int { return t[classStatus] + t[classTransport] + t[classWrong] }

func (t tally) String() string {
	return fmt.Sprintf("ok=%d status=%d transport=%d wrong_output=%d cutoff=%d",
		t[classOK], t[classStatus], t[classTransport], t[classWrong], t[classCutoff])
}
