package ident

import (
	"strconv"
	"strings"
)

// VersionNumber is a decimal-classification version identifier such as
// 1.0, 2.0, or 1.0.1. The classification tree reflects the version history
// (paper, section "Versions"): successive snapshots on a line of development
// increment the last element, and alternatives branch by appending a new
// level.
type VersionNumber []int

// ParseVersion parses a dotted decimal classification such as "1.0" or
// "2.0.1".
func ParseVersion(s string) (VersionNumber, error) {
	if s == "" {
		return nil, ErrBadVersion
	}
	parts := strings.Split(s, ".")
	v := make(VersionNumber, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || (len(part) > 1 && part[0] == '0') {
			return nil, ErrBadVersion
		}
		v = append(v, n)
	}
	return v, nil
}

// MustParseVersion is ParseVersion for known-good literals; it panics on
// error.
func MustParseVersion(s string) VersionNumber {
	v, err := ParseVersion(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the version number in dotted form.
func (v VersionNumber) String() string {
	if len(v) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range v {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// Equal reports element-wise equality.
func (v VersionNumber) Equal(w VersionNumber) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Compare orders version numbers lexicographically: element by element, with
// a shorter number preceding any extension of itself. This is the "less than
// or equal" order the paper uses when constructing the view to a version.
func (v VersionNumber) Compare(w VersionNumber) int {
	for i := 0; i < len(v) && i < len(w); i++ {
		switch {
		case v[i] < w[i]:
			return -1
		case v[i] > w[i]:
			return 1
		}
	}
	switch {
	case len(v) < len(w):
		return -1
	case len(v) > len(w):
		return 1
	}
	return 0
}

// Less reports whether v precedes w in the lexicographic order.
func (v VersionNumber) Less(w VersionNumber) bool { return v.Compare(w) < 0 }

// HasPrefix reports whether w is a prefix of v, i.e. v lies in the subtree
// of the classification rooted at w. This supports history retrieval such as
// "find all versions of object 'AlarmHandler', beginning with version 2.0".
func (v VersionNumber) HasPrefix(w VersionNumber) bool {
	if len(w) > len(v) {
		return false
	}
	for i := range w {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// NextOnLine returns the successor on the same line of development: the last
// element incremented (1.0 -> 2.0 is produced at the trunk level by
// incrementing the first element of a two-element trunk number; in general
// the last element advances: 1.0.1 -> 1.0.2).
func (v VersionNumber) NextOnLine() VersionNumber {
	if len(v) == 0 {
		return VersionNumber{1, 0}
	}
	w := v.Clone()
	if len(w) == 2 {
		// Trunk versions are major.0: 1.0, 2.0, 3.0, ...
		w[0]++
		w[1] = 0
		return w
	}
	w[len(w)-1]++
	return w
}

// Branch returns the first version number on a new line of development
// branched off v: the n-th alternative (n >= 1) starts at v.n.0 and its
// successive versions are v.n.1, v.n.2, … (see NextOnLine). Keeping the
// branch ordinal and the position on the branch separate avoids collisions
// between sibling alternatives and line successors.
func (v VersionNumber) Branch(n int) VersionNumber {
	w := make(VersionNumber, len(v)+2)
	copy(w, v)
	w[len(v)] = n
	w[len(v)+1] = 0
	return w
}

// Clone returns an independent copy.
func (v VersionNumber) Clone() VersionNumber {
	w := make(VersionNumber, len(v))
	copy(w, v)
	return w
}
