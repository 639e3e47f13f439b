// Package gs2 simulates the GS2 gyrokinetic plasma turbulence code of
// Section VI: a five-dimensional distribution function g(x,y,l,e,s)
// — two spatial coordinates, two velocity coordinates, and species —
// whose data layout (the order of the dimensions) is a runtime
// choice.
//
// The layout string orders the dimensions leftmost-fastest; the
// flattened index space is split contiguously over the ranks. Each
// time step transforms the data to an (x,y)-local form for the
// nonlinear terms and to an (l,e)-local form for the implicit/
// collision work; the cost of each transformation is the exact
// volume of elements that change owner between the two
// distributions, exchanged with a simulated all-to-all. A layout that
// already keeps the needed dimensions fastest (the paper's yxles /
// yxels recommendations) makes the corresponding transformation free
// — the mechanism behind the paper's 3.4×/2.3× wins and the
// topology sensitivity of Fig. 5.
package gs2

import (
	"fmt"
	"strings"
)

// Layout is a permutation of the dimension letters "xyles",
// leftmost-fastest. GS2's historical default is "lxyes".
type Layout string

// DefaultLayout is the layout GS2 shipped with before this paper's
// tuning campaign.
const DefaultLayout Layout = "lxyes"

// Layouts lists the layouts compared in Fig. 5.
func Layouts() []Layout {
	return []Layout{"lxyes", "xyles", "yxles", "yxels", "lyxes", "exyls"}
}

// Validate checks the layout is a permutation of "xyles".
func (l Layout) Validate() error {
	if len(l) != 5 {
		return fmt.Errorf("gs2: layout %q must have 5 letters", l)
	}
	for _, c := range "xyles" {
		if !strings.ContainsRune(string(l), c) {
			return fmt.Errorf("gs2: layout %q missing dimension %q", l, string(c))
		}
	}
	return nil
}

// front returns a layout with the given dimensions moved to the
// front (fastest), in their original relative order, followed by the
// remaining dimensions in their original relative order. This is the
// target distribution of a phase that needs those dimensions local.
func (l Layout) front(dims string) Layout {
	var lead, rest []rune
	for _, c := range l {
		if strings.ContainsRune(dims, c) {
			lead = append(lead, c)
		} else {
			rest = append(rest, c)
		}
	}
	return Layout(string(lead) + string(rest))
}

// Dims holds the extent of each dimension.
type Dims struct {
	X, Y, L, E, S int
}

// N returns the total element count.
func (d Dims) N() int { return d.X * d.Y * d.L * d.E * d.S }

// dimIndex returns the position of dimension letter c in "xyles",
// the index of its entry in a strides array.
func dimIndex(c byte) int {
	switch c {
	case 'x':
		return 0
	case 'y':
		return 1
	case 'l':
		return 2
	case 'e':
		return 3
	case 's':
		return 4
	default:
		panic(fmt.Sprintf("gs2: unknown dimension %q", string(c)))
	}
}

func (d Dims) size(c byte) int { return [5]int{d.X, d.Y, d.L, d.E, d.S}[dimIndex(c)] }

// strides returns the flattened-index stride of each dimension under
// the layout (leftmost fastest), indexed by dimIndex.
func (l Layout) strides(d Dims) [5]int {
	var s [5]int
	stride := 1
	for i := 0; i < len(l); i++ {
		s[dimIndex(l[i])] = stride
		stride *= d.size(l[i])
	}
	return s
}

// MoveMatrix computes, for the redistribution from distribution
// (home, d, p) to distribution (target, d, p), the number of elements
// rank i must send to rank j. Elements that stay on their owner are
// not counted. Both distributions split the respective flattened
// index space contiguously: owner(flat) = flat·p/N.
//
// The computation walks the index space in runs along home's fastest
// dimension; inside a run both owners are monotone step functions, so
// each run costs O(owner changes), not O(run length). The owner
// boundaries come from one table of rank start indices, which leaves
// two divisions per owner change.
func MoveMatrix(d Dims, home, target Layout, p int) [][]int {
	if err := home.Validate(); err != nil {
		panic(err)
	}
	if err := target.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("gs2: %d ranks", p))
	}
	n := d.N()
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = make([]int, p)
	}
	if n == 0 {
		return mat
	}

	runLen := d.size(home[0])
	ts := target.strides(d)
	s2 := ts[dimIndex(home[0])]

	// Odometer over the other four dimensions in home order. Run r
	// starts at home flat index r·runLen; each digit increment moves
	// the run's target base by that dimension's target stride, and a
	// wrap takes the whole digit's span back.
	var ext, tstr [4]int
	for k := range ext {
		ext[k] = d.size(home[k+1])
		tstr[k] = ts[dimIndex(home[k+1])]
	}
	start := make([]int, p+1)
	for o := range start {
		start[o] = ceilDiv(o*n, p)
	}
	var idx [4]int
	f2 := 0
	for f1 := 0; f1 < n; f1 += runLen {
		accumulateRun(mat, start, f1, f2, s2, runLen, p, n)
		for k := range idx {
			idx[k]++
			f2 += tstr[k]
			if idx[k] < ext[k] {
				break
			}
			idx[k] = 0
			f2 -= ext[k] * tstr[k]
		}
	}
	return mat
}

// accumulateRun distributes a run of `length` elements starting at
// home flat index f1 (stride 1) and target flat index f2 (stride s2)
// into mat[homeOwner][targetOwner]. start[o] = ceil(o·n/p) is the
// first flat index rank o owns.
func accumulateRun(mat [][]int, start []int, f1, f2, s2, length, p, n int) {
	o1 := f1 * p / n
	for k := 0; k < length; {
		for start[o1+1] <= f1+k { // a loop: ranks own nothing when p > n
			o1++
		}
		f := f2 + k*s2
		o2 := f * p / n
		// Advance to the next k where either owner changes.
		next := min(start[o1+1]-f1, k+ceilDiv(start[o2+1]-f, s2), length)
		if o1 != o2 {
			mat[o1][o2] += next - k
		}
		k = next
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// MovedElements sums a move matrix: the total element count changing
// owner.
func MovedElements(mat [][]int) int {
	var total int
	for _, row := range mat {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// ChunkSize returns the largest per-rank element count of a
// contiguous split of n elements over p ranks: the compute load gate.
func ChunkSize(n, p int) int { return ceilDiv(n, p) }
