// Package wire exercises the opexhaustive analyzer: it is named wire and
// declares an Op type so the fixture's switches look exactly like the real
// protocol dispatch.
package wire

// Op is the fixture's wire operation enumeration.
type Op string

// The declared operations.
const (
	OpGet Op = "get"
	OpPut Op = "put"
	OpDel Op = "del"
)

func full(op Op) int {
	switch op {
	case OpGet:
		return 1
	case OpPut:
		return 2
	case OpDel:
		return 3
	}
	return 0
}

func missing(op Op) int {
	switch op { // want `switch over wire.Op without default does not cover OpDel`
	case OpGet:
		return 1
	case OpPut:
		return 2
	}
	return 0
}

func emptyDefault(op Op) int {
	switch op {
	case OpGet:
		return 1
	default: // want `empty default`
	}
	return 0
}

func handledDefault(op Op) int {
	switch op {
	case OpGet:
		return 1
	default:
		return -1
	}
}

// A map literal keyed by Op is a table: it must have a row per op.
var fullTable = map[Op]int{OpGet: 1, OpPut: 2, OpDel: 3}

var missingTable = map[Op]int{ // want `map literal keyed by wire.Op does not cover OpPut`
	OpGet: 1,
	OpDel: 3,
}

// An empty literal is an empty container, not a table.
var emptyTable = map[Op]int{}

// A switch over a different string type is out of scope.
type mode string

const modeFast mode = "fast"

func other(m mode) int {
	switch m {
	case modeFast:
		return 1
	}
	return 0
}
