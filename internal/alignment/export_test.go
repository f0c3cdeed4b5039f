package alignment

// ExampleAlignment is exampleAlignment for the external test package.
var ExampleAlignment = exampleAlignment
