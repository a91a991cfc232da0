// Kernelaudit audits a small kernel-flavored module — a device ring
// buffer with ioctl-style entry points, modeled on the patterns behind
// CVE-2009-1897 — and shows how STACK's workflow (paper Fig. 7) is
// used on systems code: macro origins are tracked so that checks
// synthesized by macros do not produce false warnings, while the
// programmer-written unstable checks are reported and classified.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/stack"
)

const module = `
/* ring.c — toy character-device ring buffer */

#define RING_SIZE 64
#define IS_VALID(dev) (dev != NULL && dev->magic == 0x52494e47)

struct ring_dev {
	int magic;
	int head;
	int tail;
	char data[64];
};

/* BUG (CVE-2009-1897 pattern): dereference before the null check. */
int ring_poll(struct ring_dev *dev) {
	int head = dev->head;
	if (!dev)
		return -19; /* -ENODEV */
	return head != dev->tail;
}

/* Macro-expanded check after a dereference: STACK suppresses this
 * report because the check text comes from IS_VALID, not the
 * programmer (paper §4.2). */
int ring_flush(struct ring_dev *dev) {
	dev->head = 0;
	if (IS_VALID(dev))
		dev->tail = 0;
	return 0;
}

/* BUG: bounds check after the array write. */
int ring_put(struct ring_dev *dev, int idx, char c) {
	if (!dev)
		return -19;
	dev->data[idx] = c;
	if (idx < 0 || idx >= 64)
		return -22; /* -EINVAL */
	return 0;
}

/* BUG (Fig. 11 pattern): strchr(...) + 1 is assumed non-null. */
long ring_parse(char *buf) {
	char *nodep = strchr(buf, '.') + 1;
	if (!nodep)
		return -5; /* -EIO */
	return simple_strtoul(nodep, NULL, 10);
}

/* Correct code: check first, then use. No reports expected. */
int ring_get(struct ring_dev *dev, int idx) {
	if (!dev)
		return -19;
	if (idx < 0 || idx >= 64)
		return -22;
	return dev->data[idx];
}
`

func main() {
	res, err := stack.New().CheckSource(context.Background(), "ring.c", module)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit of ring.c: %d report(s)\n\n", len(res.Diagnostics))
	byFunc := map[string]int{}
	for _, d := range res.Diagnostics {
		fmt.Println(d)
		fmt.Printf("  category: %s\n\n", d.Category)
		byFunc[d.Function]++
	}

	fmt.Println("per entry point:")
	for _, fn := range []string{"ring_poll", "ring_flush", "ring_put", "ring_parse", "ring_get"} {
		verdict := "clean"
		if n := byFunc[fn]; n > 0 {
			verdict = fmt.Sprintf("%d report(s)", n)
		}
		fmt.Printf("  %-12s %s\n", fn, verdict)
	}
	fmt.Println("\n(ring_flush's macro-origin check is suppressed; re-run the checker")
	fmt.Println(" with stack.WithOriginFilter(false), or stack -no-filter, to see it.)")
}
