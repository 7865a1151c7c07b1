package ir

import (
	"fmt"
	"strings"
)

// Print renders the program in the style of Figure 5: nested loops with
// annotations, attached stages inset at their attach point, unfilled tile
// sizes printed as TILE placeholders, and extent-1 loops elided.
func (s *State) Print() string {
	var b strings.Builder
	attached := map[string][]*Stage{}
	for _, st := range s.Stages {
		if st.Attached {
			attached[st.AttachTarget] = append(attached[st.AttachTarget], st)
		}
	}
	for _, st := range s.Stages {
		if st.Inlined || st.Attached {
			continue
		}
		printStage(&b, s, st, attached, 0)
	}
	return b.String()
}

func printStage(b *strings.Builder, s *State, st *Stage, attached map[string][]*Stage, depth int) {
	if st.AutoUnrollMax > 0 {
		fmt.Fprintf(b, "%s# pragma auto_unroll_max_step=%d\n",
			strings.Repeat("  ", depth), st.AutoUnrollMax)
	}
	for idx, it := range st.Iters {
		if it.Extent != 1 || it.Ann != AnnNone {
			name := st.IterName(idx)
			ext := fmt.Sprintf("%d", it.Extent)
			if it.Extent == Unfilled {
				ext = "TILE_" + strings.ToUpper(strings.ReplaceAll(name, ".", ""))
			}
			fmt.Fprintf(b, "%s%s %s in range(%s):\n",
				strings.Repeat("  ", depth), it.Ann, name, ext)
			depth++
		}
		for _, child := range attached[st.Name] {
			if child.AttachIdx == idx && !child.Inlined {
				printStage(b, s, child, attached, depth)
			}
		}
	}
	op := "="
	if len(st.Node.ReduceAxes) > 0 {
		op = "+="
	}
	var ins []string
	for _, a := range st.Node.Reads {
		ins = append(ins, a.Tensor.Name)
	}
	fmt.Fprintf(b, "%s%s[...] %s f(%s)\n",
		strings.Repeat("  ", depth), st.Node.Out.Name, op, strings.Join(ins, ", "))
}
