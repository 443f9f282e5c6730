package automata

// SparsifyReference exposes the packer oracle to the external tests that
// compare Sparsify against it on compiled grammars and vocabularies.
var SparsifyReference = sparsifyReference
