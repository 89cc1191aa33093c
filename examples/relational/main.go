// Relational: why multi-attribute consistency is undecidable. This example
// walks the Theorem 3.1 reduction end to end: a relational implication
// question Θ ⊢ φ is compiled into an XML specification whose consistency
// equals the satisfiability of Θ ∧ ¬φ, and a concrete relational instance
// is carried across the reduction into a conforming XML document.
package main

import (
	"context"
	"fmt"
	"log"

	"xic"
	"xic/internal/constraint"
	"xic/internal/reduction"
	"xic/internal/relational"
	"xic/internal/xmltree"
)

func main() {
	// Schema: accounts(owner, iban, branch) with Θ = {iban is a key} and the
	// question: does Θ imply that owner is a key?
	s := relational.NewSchema()
	s.AddRelation("accounts", "owner", "iban", "branch")
	theta := []relational.Dependency{
		relational.Key{Rel: "accounts", Attrs: []string{"iban"}},
	}
	phi := relational.Key{Rel: "accounts", Attrs: []string{"owner"}}

	spec, err := reduction.RelationalToXML(s, theta, phi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== XML specification produced by the Theorem 3.1 reduction ===")
	fmt.Println("--- DTD ---")
	fmt.Print(spec.DTD.String())
	fmt.Println("--- constraints ---")
	fmt.Print(constraint.FormatSet(spec.Sigma))
	fmt.Println()

	// A database where one owner holds two accounts: satisfies Θ, refutes φ.
	inst := relational.NewInstance(s)
	for _, t := range []relational.Tuple{
		{"owner": "Ada", "iban": "DE01", "branch": "x"},
		{"owner": "Ada", "iban": "DE02", "branch": "y"},
		{"owner": "Bob", "iban": "DE03", "branch": "x"},
	} {
		if err := inst.Insert("accounts", t); err != nil {
			log.Fatal(err)
		}
	}
	if ok, v := relational.SatisfiedAll(inst, theta); !ok {
		log.Fatalf("instance violates Θ: %v", v)
	}
	fmt.Printf("instance satisfies Θ: yes;  satisfies φ (%s): %v\n", phi, phi.SatisfiedBy(inst))
	fmt.Println()

	// Carry the instance across the reduction: the Figure 2 tree.
	tree, err := spec.TreeFromInstance(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 2 document built from the instance ===")
	fmt.Print(xmltree.Serialize(tree))

	// The generated specification is in the undecidable class C_{K,FK}, yet
	// it still compiles into an xic.Spec: dynamic validation works for
	// every class, only the static question is refused.
	compiled, err := xic.Compile(spec.DTD, spec.Sigma...)
	if err != nil {
		log.Fatal(err)
	}
	if rep, err := compiled.Validate(context.Background(), tree); err != nil || !rep.OK() {
		log.Fatalf("tree fails validation — reduction broken: %v %v", err, rep)
	}
	fmt.Println()
	fmt.Println("tree conforms to the generated DTD and satisfies Σ: yes")
	fmt.Println()
	fmt.Println("Consistency of such generated specifications decides relational key")
	fmt.Println("implication — an undecidable problem — so no algorithm can decide")
	fmt.Println("consistency for multi-attribute keys and foreign keys (Theorem 3.1).")
}
