package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"lams/pkg/lams"
)

// meshInput is a mesh as the program receives it: Triangle (dim 2) or
// TetGen (dim 3) .node/.ele bytes.
type meshInput struct {
	Dim       int
	Node, Ele []byte
}

// permutation is a uniformly random newToOld relabeling of n vertices.
func permutation(n int, rng *rand.Rand) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// triInput generates the named 2D domain at about verts vertices, relabels
// its vertices with a permutation drawn from seed, and encodes it.
func triInput(seed int64, domain string, verts int) (meshInput, error) {
	m, err := lams.GenerateMesh(domain, verts)
	if err != nil {
		return meshInput{}, err
	}
	rm, err := m.Renumber(permutation(m.NumVerts(), rand.New(rand.NewSource(seed))))
	if err != nil {
		return meshInput{}, err
	}
	in := meshInput{Dim: 2}
	var node, ele bytes.Buffer
	if err := rm.WriteNodeEle(&node, &ele); err != nil {
		return meshInput{}, err
	}
	in.Node, in.Ele = node.Bytes(), ele.Bytes()
	return in, nil
}

// tetInput generates the jittered Kuhn cube at about verts vertices,
// relabels it with a permutation drawn from seed, and encodes it.
func tetInput(seed int64, verts int, jitter float64) (meshInput, error) {
	m, err := lams.GenerateTetCubeVerts(verts, jitter)
	if err != nil {
		return meshInput{}, err
	}
	rm, err := m.Renumber(permutation(m.NumVerts(), rand.New(rand.NewSource(seed))))
	if err != nil {
		return meshInput{}, err
	}
	in := meshInput{Dim: 3}
	var node, ele bytes.Buffer
	if err := rm.WriteNodeEle(&node, &ele); err != nil {
		return meshInput{}, err
	}
	in.Node, in.Ele = node.Bytes(), ele.Bytes()
	return in, nil
}

// serviceMesh is one mesh of the service workload: 2D meshes travel as
// uploads; 3D meshes are generated server-side, since the upload route
// takes Triangle files only.
type serviceMesh struct {
	Name   string
	Input  meshInput // dim 2 only
	Verts  int       // dim 3: the target vertex count
	Jitter float64   // dim 3
	Dim    int
}

// serviceMeshes makes the service workload's meshes: n2 small 2D domains
// of a few thousand vertices, each relabeled by a permutation drawn from
// seed, and n3 small cubes. The sizes are fixed, so a seed changes the
// labelings and the request order, not the amount of work.
func serviceMeshes(seed int64, n2, n3 int) ([]serviceMesh, error) {
	rng := rand.New(rand.NewSource(seed))
	domains := lams.Domains()
	var out []serviceMesh
	for i := 0; i < n2; i++ {
		domain := domains[i%len(domains)]
		in, err := triInput(rng.Int63(), domain, 2000+400*i)
		if err != nil {
			return nil, fmt.Errorf("service mesh %s: %w", domain, err)
		}
		out = append(out, serviceMesh{Name: domain, Input: in, Dim: 2})
	}
	for i := 0; i < n3; i++ {
		out = append(out, serviceMesh{Name: "cube", Dim: 3, Verts: 1500 + 1000*i, Jitter: tetJitter})
	}
	return out, nil
}
