package table

// BlockRows and NewBlockScanner let the tests that justify the block size
// run the production walk at other sizes.
const BlockRows = blockRows

var NewBlockScanner = newBlockScanner
