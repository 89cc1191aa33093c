// Registrar: the school DTD D3 of Section 2.2 with its multi-attribute
// keys and foreign keys Σ3. Multi-attribute consistency is undecidable in
// general (Theorem 3.1), so xic refuses the static question for Σ3 and the
// example falls back to the two decidable tools the paper provides:
// dynamic validation of concrete documents, and static analysis of the
// unary fragment. A Spec compiles for *any* well-formed constraint set —
// including undecidable classes — and still serves Validate; only the
// static question reports ErrUndecidable.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"xic"
)

const schoolDTD = `
<!ELEMENT school (course*, student*, enroll*)>
<!ELEMENT course (subject)>
<!ELEMENT student (name)>
<!ELEMENT enroll EMPTY>
<!ELEMENT name (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST course dept CDATA #REQUIRED>
<!ATTLIST course course_no CDATA #REQUIRED>
<!ATTLIST student student_id CDATA #REQUIRED>
<!ATTLIST enroll student_id CDATA #REQUIRED>
<!ATTLIST enroll dept CDATA #REQUIRED>
<!ATTLIST enroll course_no CDATA #REQUIRED>
`

const sigma3 = `
student(student_id) -> student
course(dept, course_no) -> course
enroll(student_id, dept, course_no) -> enroll
enroll(student_id) => student(student_id)
enroll(dept, course_no) => course(dept, course_no)
`

const registry = `
<school>
  <course dept="cs" course_no="240"><subject>Databases</subject></course>
  <course dept="cs" course_no="320"><subject>Compilers</subject></course>
  <student student_id="s1"><name>Ada</name></student>
  <enroll student_id="s1" dept="cs" course_no="240"/>
  <enroll student_id="s2" dept="cs" course_no="240"/>
</school>
`

func main() {
	ctx := context.Background()
	d, err := xic.ParseDTD(schoolDTD)
	if err != nil {
		log.Fatal(err)
	}
	s3, err := xic.ParseConstraints(sigma3)
	if err != nil {
		log.Fatal(err)
	}
	// The school schema compiles once; Σ3 and the unary fragment below
	// both bind against it.
	schema, err := xic.CompileDTD(d)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := schema.Bind(s3...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ3 class: %s\n", spec.Class())

	// Static consistency for C_{K,FK} is undecidable: xic says so rather
	// than guessing.
	_, err = spec.Consistent(ctx)
	fmt.Printf("static check of Σ3 refused (undecidable): %v\n", errors.Is(err, xic.ErrUndecidable))
	fmt.Println()

	// Dynamic validation still works for any concrete registry document.
	doc, err := xic.ParseDocumentString(registry)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := spec.Validate(ctx, doc)
	switch {
	case err != nil:
		log.Fatal(err)
	case !rep.OK():
		fmt.Printf("registry document: violates %s\n", rep.Violations[0].Constraint)
		fmt.Println("(student s2 enrolls without being registered)")
	default:
		fmt.Println("registry document: valid")
	}
	fmt.Println()

	// The unary fragment of Σ3 is statically decidable — and satisfiable.
	unary, _ := xic.ParseConstraints(`
student.student_id -> student
enroll.student_id => student.student_id
`)
	base, err := schema.Bind()
	if err != nil {
		log.Fatal(err)
	}
	res, err := base.ConsistentWith(ctx, unary...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unary fragment consistent: %v; witness:\n\n", res.Consistent)
	fmt.Print(xic.SerializeDocument(res.Witness))
}
