package tree

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseNewick builds an unrooted tree over the given taxa from a Newick
// string. Binary trees are required; a bifurcating (rooted) top level is
// silently unrooted by fusing the two root branches, exactly as RAxML does
// when reading rooted input. Branch lengths fill every slot of the branch;
// missing lengths default to DefaultBranchLength.
func ParseNewick(s string, names []string, zSlots int) (*Tree, error) {
	t, err := New(names, zSlots)
	if err != nil {
		return nil, err
	}
	nameToTip := make(map[string]*Node, len(names))
	for i, n := range names {
		nameToTip[n] = t.Tips[i]
	}
	p := &newickParser{s: s, t: t, nameToTip: nameToTip}
	p.skipSpace()
	if p.pos >= len(p.s) || p.peek() != '(' {
		return nil, errors.New("newick: tree must start with '('")
	}
	children, lengths, err := p.parseChildren()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	// Optional root label/length are ignored.
	for p.pos < len(p.s) && p.peek() != ';' {
		p.pos++
	}
	if p.pos >= len(p.s) || p.peek() != ';' {
		return nil, errors.New("newick: missing terminating ';'")
	}
	switch len(children) {
	case 2:
		// Rooted input: fuse the two root-adjacent branches into one.
		z := t.NewZ()
		for k := range z {
			z[k] = ClampBranchLen(lengths[0][k] + lengths[1][k])
		}
		Connect(children[0], children[1], z)
	case 3:
		inner, err := p.takeInner()
		if err != nil {
			return nil, err
		}
		recs := [3]*Node{inner, inner.Next, inner.Next.Next}
		for i := 0; i < 3; i++ {
			Connect(recs[i], children[i], lengths[i])
		}
	default:
		return nil, fmt.Errorf("newick: root must have 2 or 3 children, got %d", len(children))
	}
	if p.usedTips != len(names) {
		return nil, fmt.Errorf("newick: tree names %d of %d taxa", p.usedTips, len(names))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

type newickParser struct {
	s         string
	pos       int
	t         *Tree
	nameToTip map[string]*Node
	usedTips  int
	usedInner int
	depth     int // open parentheses around p.pos
	seenTips  map[string]bool
}

func (p *newickParser) peek() byte { return p.s[p.pos] }
func (p *newickParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

func (p *newickParser) takeInner() (*Node, error) {
	if p.usedInner >= len(p.t.Inner) {
		return nil, errors.New("newick: more internal nodes than an unrooted binary tree allows")
	}
	n := p.t.Inner[p.usedInner]
	p.usedInner++
	return n, nil
}

// parseChildren parses "(" subtree ("," subtree)* ")" and returns the
// dangling records with their branch lengths.
func (p *newickParser) parseChildren() (children []*Node, lengths [][]float64, err error) {
	p.pos++ // consume '('
	// Every level of nesting holds at least one taxon of its own, so deeper
	// input is malformed; unbounded, "((((..." from an untrusted request
	// would recurse until the stack is exhausted, which no recover catches.
	if p.depth++; p.depth > len(p.t.Tips) {
		return nil, nil, fmt.Errorf("newick: nested deeper than %d taxa allow at position %d", len(p.t.Tips), p.pos)
	}
	for {
		child, z, err := p.parseSubtree()
		if err != nil {
			return nil, nil, err
		}
		children = append(children, child)
		lengths = append(lengths, z)
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, nil, errors.New("newick: unexpected end of input")
		}
		switch p.peek() {
		case ',':
			p.pos++
			continue
		case ')':
			p.pos++
			p.depth--
			return children, lengths, nil
		default:
			return nil, nil, fmt.Errorf("newick: unexpected character %q at %d", string(p.peek()), p.pos)
		}
	}
}

// parseSubtree parses one subtree and returns its dangling record (Back not
// yet set) plus the branch length slice connecting it upward.
func (p *newickParser) parseSubtree() (*Node, []float64, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, nil, errors.New("newick: unexpected end of input")
	}
	if p.peek() == '(' {
		children, lengths, err := p.parseChildren()
		if err != nil {
			return nil, nil, err
		}
		if len(children) != 2 {
			return nil, nil, fmt.Errorf("newick: internal node with %d children; only binary trees are supported", len(children))
		}
		inner, err := p.takeInner()
		if err != nil {
			return nil, nil, err
		}
		Connect(inner.Next, children[0], lengths[0])
		Connect(inner.Next.Next, children[1], lengths[1])
		// Optional internal label ignored.
		p.parseLabel()
		z, err := p.parseLength()
		if err != nil {
			return nil, nil, err
		}
		return inner, z, nil
	}
	name := p.parseLabel()
	if name == "" {
		return nil, nil, fmt.Errorf("newick: expected taxon name at position %d", p.pos)
	}
	tip, ok := p.nameToTip[name]
	if !ok {
		return nil, nil, fmt.Errorf("newick: unknown taxon %q", name)
	}
	if p.seenTips == nil {
		p.seenTips = make(map[string]bool)
	}
	if p.seenTips[name] {
		return nil, nil, fmt.Errorf("newick: taxon %q appears twice", name)
	}
	p.seenTips[name] = true
	p.usedTips++
	z, err := p.parseLength()
	if err != nil {
		return nil, nil, err
	}
	return tip, z, nil
}

func (p *newickParser) parseLabel() string {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == ',' || c == ')' || c == '(' || c == ':' || c == ';' || c == ' ' || c == '\n' || c == '\t' {
			break
		}
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *newickParser) parseLength() ([]float64, error) {
	z := p.t.NewZ()
	p.skipSpace()
	if p.pos >= len(p.s) || p.peek() != ':' {
		return z, nil
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		return nil, fmt.Errorf("newick: bad branch length %q", p.s[start:p.pos])
	}
	v = ClampBranchLen(v)
	for k := range z {
		z[k] = v
	}
	return z, nil
}

// WriteNewick serializes the tree with branch lengths from slot k, rooted for
// display at the inner node adjacent to tip 0 (the conventional unrooted
// Newick form with a top-level trifurcation): WriteNewickSupport without
// support labels.
func WriteNewick(t *Tree, k int) string { return WriteNewickSupport(t, k, nil) }

// WriteNewickSupport serializes the tree like WriteNewick, additionally
// labelling every internal node with the integer-percent support of the
// branch above it (the conventional bootstrap annotation, e.g. ")87:0.012").
// support is keyed by canonical split key as returned by SupportCounter;
// branches without an entry are left unlabelled, and a nil map labels none.
func WriteNewickSupport(t *Tree, k int, support map[string]float64) string {
	var b strings.Builder
	tip := t.Tips[0]
	root := tip.Back
	b.WriteByte('(')
	b.WriteString(t.Names[tip.Index])
	fmt.Fprintf(&b, ":%.8f", tip.Z[k])
	b.WriteByte(',')
	writeSubtree(&b, t, root.Next.Back, root.Next.Z[k], k, support)
	b.WriteByte(',')
	writeSubtree(&b, t, root.Next.Next.Back, root.Next.Next.Z[k], k, support)
	b.WriteString(");")
	return b.String()
}

func writeSubtree(b *strings.Builder, t *Tree, p *Node, z float64, k int, support map[string]float64) {
	if p.IsTip() {
		b.WriteString(t.Names[p.Index])
		fmt.Fprintf(b, ":%.8f", z)
		return
	}
	b.WriteByte('(')
	writeSubtree(b, t, p.Next.Back, p.Next.Z[k], k, support)
	b.WriteByte(',')
	writeSubtree(b, t, p.Next.Next.Back, p.Next.Next.Z[k], k, support)
	b.WriteByte(')')
	if support != nil {
		if key, ok := t.SplitKey(p); ok {
			if sup, have := support[key]; have {
				fmt.Fprintf(b, "%d", int(sup*100+0.5))
			}
		}
	}
	fmt.Fprintf(b, ":%.8f", z)
}
