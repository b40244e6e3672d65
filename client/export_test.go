package client

// MaxResponse exports the response bound to the package's tests.
const MaxResponse = maxResponse
