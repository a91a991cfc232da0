// Quickstart: check a C snippet for unstable code with the public
// stack API, which runs the whole checker pipeline — frontend, IR,
// solver-based analysis — in one call. The snippet is Figure 1 of the paper: the pointer-overflow
// sanity check that gcc silently deletes.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/stack"
)

const src = `
int parse_header(char *buf, char *buf_end, unsigned int len) {
	if (buf + len >= buf_end)
		return -1; /* len too large */
	if (buf + len < buf)
		return -1; /* overflow check: compilers delete this */
	/* ... write to buf[0..len-1] ... */
	return 0;
}
`

func main() {
	// Run STACK with the paper's default configuration: 5-second
	// query timeout, origin filtering, minimal UB sets.
	res, err := stack.New().CheckSource(context.Background(), "figure1.c", src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(stack.FormatDiagnostics(res.Diagnostics))
	fmt.Printf("(%d solver queries, %d timeouts)\n", res.Stats.Queries, res.Stats.Timeouts)
}
