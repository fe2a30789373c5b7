// Package avl implements a self-balancing AVL search tree keyed by int64.
//
// The tree is the backing structure of the cracker index (Section 3.2 of
// the paper: "The partitioning information for each cracker column is
// maintained in an AVL-tree"). Besides ordered insertion it supports the
// navigation queries cracking needs — the greatest key not larger than a
// probe (Floor, FloorWhere), the smallest key above one (Successor), the
// smallest key (Min) — and in-order traversal, from the start or past a
// probe. Pieces are never merged, so keys are never deleted.
//
// The implementation is not safe for concurrent use; callers synchronise
// (the cracker index wraps the tree in a short-critical-section RWMutex).
package avl

// Value is the payload stored at each tree node. The cracker index stores
// the piece boundary position and bound inclusivity for the key's pivot
// value; the tree itself treats it as opaque.
type Value any

// node is a single AVL tree node.
type node struct {
	key         int64
	value       Value
	left, right *node
	height      int8
}

// Tree is an ordered map from int64 keys to arbitrary values with
// guaranteed O(log n) insert and search.
//
// The zero value is an empty tree ready for use.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree. Equivalent to &Tree{} but reads better at
// call sites.
func New() *Tree { return &Tree{} }

// Len reports the number of keys stored in the tree.
func (t *Tree) Len() int { return t.size }

func height(n *node) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *node) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func balanceFactor(n *node) int {
	return int(height(n.left)) - int(height(n.right))
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

// rebalance restores the AVL invariant at n after an insert or delete in
// one of its subtrees and returns the (possibly new) subtree root.
func rebalance(n *node) *node {
	fix(n)
	bf := balanceFactor(n)
	switch {
	case bf > 1:
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert stores value under key, replacing any existing value. It reports
// whether the key was newly inserted (false means replaced).
func (t *Tree) Insert(key int64, value Value) bool {
	var inserted bool
	t.root, inserted = insert(t.root, key, value)
	if inserted {
		t.size++
	}
	return inserted
}

func insert(n *node, key int64, value Value) (*node, bool) {
	if n == nil {
		return &node{key: key, value: value, height: 1}, true
	}
	var inserted bool
	switch {
	case key < n.key:
		n.left, inserted = insert(n.left, key, value)
	case key > n.key:
		n.right, inserted = insert(n.right, key, value)
	default:
		n.value = value
		return n, false
	}
	return rebalance(n), inserted
}

// Get returns the value stored under key and whether the key exists.
func (t *Tree) Get(key int64) (Value, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.value, true
		}
	}
	return nil, false
}

// Floor returns the largest key <= probe and its value. ok is false when
// every key in the tree is greater than probe (or the tree is empty).
func (t *Tree) Floor(probe int64) (key int64, value Value, ok bool) {
	n := t.root
	for n != nil {
		switch {
		case probe < n.key:
			n = n.left
		case probe > n.key:
			key, value, ok = n.key, n.value, true
			n = n.right
		default:
			return n.key, n.value, true
		}
	}
	return key, value, ok
}

// Min returns the smallest key and its value; ok is false on an empty tree.
func (t *Tree) Min() (key int64, value Value, ok bool) {
	n := t.root
	if n == nil {
		return 0, nil, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.value, true
}

// Successor returns the smallest key strictly greater than probe.
func (t *Tree) Successor(probe int64) (key int64, value Value, ok bool) {
	n := t.root
	for n != nil {
		if probe < n.key {
			key, value, ok = n.key, n.value, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return key, value, ok
}

// Ascend calls fn on every (key, value) pair in ascending key order until
// fn returns false.
func (t *Tree) Ascend(fn func(key int64, value Value) bool) {
	ascend(t.root, fn)
}

func ascend(n *node, fn func(int64, Value) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return ascend(n.right, fn)
}

// AscendAfter calls fn on every pair with key > probe in ascending order
// until fn returns false: an Ascend that starts at probe's successor
// instead of visiting, and discarding, everything below it.
func (t *Tree) AscendAfter(probe int64, fn func(key int64, value Value) bool) {
	ascendAfter(t.root, probe, fn)
}

func ascendAfter(n *node, probe int64, fn func(int64, Value) bool) bool {
	if n == nil {
		return true
	}
	if n.key > probe {
		if !ascendAfter(n.left, probe, fn) || !fn(n.key, n.value) {
			return false
		}
	}
	return ascendAfter(n.right, probe, fn)
}

// FloorWhere locates the node with the greatest key for which pred holds,
// assuming pred is monotone over the key order (true for a prefix of the
// keys, then false). If such a node exists, visit is called once with its
// key and value.
//
// The cracker index uses this to find the piece containing a *position*:
// boundary keys and boundary positions are ordered identically, so
// "piece start <= pos" is a monotone predicate over the keys.
func (t *Tree) FloorWhere(pred func(key int64, value Value) bool, visit func(key int64, value Value)) {
	n := t.root
	var best *node
	for n != nil {
		if pred(n.key, n.value) {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best != nil {
		visit(best.key, best.value)
	}
}

// checkInvariants walks the tree verifying AVL balance and BST ordering.
// It returns false on the first violation. Used by tests.
func (t *Tree) checkInvariants() bool {
	ok := true
	var walk func(n *node, lo, hi int64, haveLo, haveHi bool) int8
	walk = func(n *node, lo, hi int64, haveLo, haveHi bool) int8 {
		if n == nil {
			return 0
		}
		if haveLo && n.key <= lo {
			ok = false
		}
		if haveHi && n.key >= hi {
			ok = false
		}
		hl := walk(n.left, lo, n.key, haveLo, true)
		hr := walk(n.right, n.key, hi, true, haveHi)
		if d := int(hl) - int(hr); d < -1 || d > 1 {
			ok = false
		}
		h := hl
		if hr > hl {
			h = hr
		}
		if n.height != h+1 {
			ok = false
		}
		return h + 1
	}
	walk(t.root, 0, 0, false, false)
	return ok
}
