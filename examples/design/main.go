// Design: diagnosing and repairing a broken XML specification — a first
// step toward the "distinguish good XML design from bad" direction in the
// paper's conclusion. Starting from DTD-native ID/IDREF typing, the example
// derives the constraints the DTD denotes, detects that a schema evolution
// made them unsatisfiable, isolates a minimal inconsistent core, and
// verifies a repair. The DTD is compiled once (xic.CompileDTD); every
// probe binds against the shared schema, reusing the compiled encoding.
package main

import (
	"context"
	"fmt"
	"log"

	"xic"
)

// A message archive: every message references its thread through DTD
// ID/IDREF typing. A later schema evolution made each thread embed exactly
// two pinned messages directly (pin, pin) while messages still reference
// threads — the same cardinality trap as the paper's teacher example.
const archive = `
<!ELEMENT archive (thread+)>
<!ELEMENT thread (pin, pin)>
<!ELEMENT pin EMPTY>
<!ATTLIST thread tid ID #REQUIRED>
<!ATTLIST pin mid CDATA #REQUIRED>
<!ATTLIST pin in IDREF #REQUIRED>
`

func main() {
	ctx := context.Background()
	d, err := xic.ParseDTD(archive)
	if err != nil {
		log.Fatal(err)
	}

	// 1. The DTD's own ID/IDREF typing denotes unary constraints.
	sigma, err := xic.ConstraintsFromIDs(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("constraints denoted by ID/IDREF typing:")
	for _, c := range sigma {
		fmt.Printf("  %s\n", c)
	}

	// Compile the schema once; the probes below share its encoding.
	schema, err := xic.CompileDTD(d)
	if err != nil {
		log.Fatal(err)
	}
	base, err := schema.Bind()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Add the designer's intended key: every pin is one message.
	sigma = append(sigma, xic.UnaryKey("pin", "mid"))
	withKey := append(sigma, xic.UnaryKey("pin", "in"))

	res, err := base.WithSolveOptions(xic.WithSkipWitness()).ConsistentWith(ctx, withKey...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith 'pin.in -> pin' (one pin per thread): consistent = %v\n", res.Consistent)

	// 3. Why? Bind the broken set to the same schema (no recompilation)
	// and ask for a minimal inconsistent core.
	broken, err := schema.Bind(withKey...)
	if err != nil {
		log.Fatal(err)
	}
	diag, err := broken.Diagnose(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimal inconsistent core:")
	for _, c := range diag.Core {
		fmt.Printf("  %s\n", c)
	}
	fmt.Println("— each thread embeds two pins, so pin.in cannot be a key of pin.")

	// 4. Repair: drop the bad key; the rest is satisfiable, with a witness.
	res, err = base.ConsistentWith(ctx, sigma...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepaired specification consistent = %v; witness:\n\n", res.Consistent)
	fmt.Print(xic.SerializeDocument(res.Witness))
}
