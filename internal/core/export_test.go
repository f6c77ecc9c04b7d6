package core

import (
	"fmt"
	"strings"

	"lusail/internal/sparql"
)

// PlanOutline renders what planning decided for p, one line per branch,
// subquery and OPTIONAL block: the GJVs, each subquery's patterns, sources,
// pushed filters and SAPE estimate, and the delay flags execution would
// start from. It is the plan golden's text.
func PlanOutline(e *Engine, p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gjvs %v\n", p.gjvs)
	for i, pb := range p.branches {
		fmt.Fprintf(&b, "branch %d", i)
		if pb.empty {
			b.WriteString(" empty\n")
			continue
		}
		fmt.Fprintf(&b, " residual %s\n", exprs(pb.residual))
		sqs := cloneSubqueries(pb.sqs)
		e.delay(sqs)
		for _, sq := range sqs {
			fmt.Fprintf(&b, "  %s filters %s est %g known %t\n", sq, exprs(sq.Filters), sq.EstCard, sq.CardKnown)
		}
		for _, ob := range pb.optionals {
			fmt.Fprintf(&b, "  %s filters %s residual %s\n", ob.sq, exprs(ob.sq.Filters), exprs(ob.residual))
			for _, part := range ob.parts {
				fmt.Fprintf(&b, "    part %s filters %s\n", part, exprs(part.Filters))
			}
		}
	}
	return b.String()
}

func exprs(es []sparql.Expr) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = sparql.ExprString(e)
	}
	return "[" + strings.Join(out, "; ") + "]"
}
