package serve

import (
	"crypto/sha256"

	"tsplit/internal/device"
	"tsplit/internal/prep"
)

// BuildWorkload runs the workload builder on a request and returns the
// prepared workload with its plan-key digest, for the external
// equivalence test (prepare_test.go).
func BuildWorkload(req *PlanRequest) (*prep.Prepared, [sha256.Size]byte, error) {
	dev, err := device.ByName(req.Device)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	wl, herr := buildWorkload(req, dev, nil)
	if herr != nil {
		return nil, [sha256.Size]byte{}, herr
	}
	return wl.Prepared, wl.digest, nil
}

// GraphDigest is graphDigest, for the external equivalence test.
var GraphDigest = graphDigest
