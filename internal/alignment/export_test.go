package alignment

// ExampleAlignment is exampleAlignment for the external test package.
var ExampleAlignment = exampleAlignment

// IsGapCode reports whether an encoded state carries no information.
func IsGapCode(t DataType, code byte) bool { return code == GapCode(t) }
