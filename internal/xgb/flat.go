package xgb

// ensemble is one immutable trained model: every tree laid out in
// preorder in one contiguous node slab, trees addressed by their root
// offset. The trainer emits this layout directly (build appends a node,
// then its left subtree, then its right one), so the slab that training
// fills is the slab prediction walks. A node is 16 bytes
// (threshold+feature+right-child), the left child is implicitly the
// next node, and a leaf stores its value in the threshold slot — so a
// split visits exactly one cache line and the taken-left fast path walks
// linearly through memory.
type ensemble struct {
	nodes []node
	// roots[t] is the slab index of tree t's root.
	roots []int32
	lr    float64
}

// node is one slab node. For a split, threshold/feature describe the
// test and right is the absolute slab index of the right child (the
// left child is the next node, preorder). For a leaf (feature == leafMark),
// threshold holds the leaf value.
type node struct {
	threshold float64
	feature   int32
	right     int32
}

// leafMark is the feature of a leaf node.
const leafMark = int32(-1)

// tree returns tree ti's root index and its nodes, one preorder run of
// the slab.
func (e *ensemble) tree(ti int) (int32, []node) {
	root, end := e.roots[ti], int32(len(e.nodes))
	if ti+1 < len(e.roots) {
		end = e.roots[ti+1]
	}
	return root, e.nodes[root:end]
}

// predictTree walks one tree of the slab for input x.
func (e *ensemble) predictTree(ti int, x []float64) float64 {
	i := e.roots[ti]
	nodes := e.nodes
	for {
		nd := nodes[i]
		if nd.feature == leafMark {
			return nd.threshold
		}
		if x[nd.feature] <= nd.threshold {
			i++
		} else {
			i = nd.right
		}
	}
}

// addStmt folds one statement into the running program score s: the
// same `s += lr * predict` per tree, in tree order, against the SAME
// accumulator the caller threads through every statement. Accumulating
// into per-statement subtotals instead would re-associate the float
// sum and change low bits — the bit-identity contract forbids that.
func (e *ensemble) addStmt(s float64, x []float64) float64 {
	for ti := range e.roots {
		s += e.lr * e.predictTree(ti, x)
	}
	return s
}

// scoreStmt is the single-statement score (a fresh accumulator).
func (e *ensemble) scoreStmt(x []float64) float64 {
	return e.addStmt(0, x)
}
