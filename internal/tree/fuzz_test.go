package tree

import "testing"

// FuzzParseNewick: an untrusted tree string (evaluate and analysis requests)
// yields an error or a valid tree that WriteNewick serializes to a fixed
// point; never a panic.
func FuzzParseNewick(f *testing.F) {
	taxa := names(6)
	for seed := int64(1); seed <= 3; seed++ {
		tr, err := Random(taxa, 1, RandomOptions{Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(WriteNewick(tr, 0))
	}
	f.Add("((t0:0.1,t1:0.2):0.05,((t2:0.3,t3:0.4):0.15,(t4,t5)));")
	f.Add("(t0:1e999,t1:-1,(t2:1,(t3:1,(t4:1,t5:1):1):1):1);")
	f.Add("((((((((((")
	f.Add("(t0:1,t1:1,(t2:1,t3:1:1);")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseNewick(s, taxa, 1)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted %q but the tree is invalid: %v", s, err)
		}
		out := WriteNewick(tr, 0)
		back, err := ParseNewick(out, taxa, 1)
		if err != nil {
			t.Fatalf("%q was written as %q, which does not parse: %v", s, out, err)
		}
		if again := WriteNewick(back, 0); again != out {
			t.Fatalf("not a fixed point: %q then %q", out, again)
		}
	})
}
