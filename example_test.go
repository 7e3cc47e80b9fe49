package semibfs_test

import (
	"errors"
	"fmt"
	"log"

	"semibfs"
)

// The canonical flow: generate a Graph500 instance, place it with the
// forward graph on simulated PCIe flash, traverse, validate.
func Example() {
	edges, err := semibfs.GenerateKronecker(12, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := semibfs.NewSystem(edges, semibfs.Options{Placement: semibfs.PlacePCIeFlash})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	res, err := sys.BFS(sys.FirstConnectedVertex())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Validate(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices:", edges.NumVertices())
	fmt.Println("validated:", res.Visited > 1)
	// Output:
	// vertices: 4096
	// validated: true
}

// Custom graphs enter through NewEdgeList; the BFS tree answers path
// queries.
func ExampleResult_PathTo() {
	// A small cycle with a chord: 0-1-2-3-4-0 and 1-3.
	edges, err := semibfs.NewEdgeList(5, []semibfs.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, {U: 1, V: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := semibfs.NewSystem(edges, semibfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.BFS(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hops to 3:", res.HopDistance(3))
	fmt.Println("hops to 2:", res.HopDistance(2))
	// Output:
	// hops to 3: 2
	// hops to 2: 2
}

// PlanForBudget decides what to offload before any graph is built.
func ExamplePlanForBudget() {
	plan := semibfs.PlanForBudget(20, 16, 400<<20) // 400 MiB budget
	fmt.Println("forward on NVM:", plan.ForwardOnNVM)
	fmt.Println("fits:", plan.Fits)
	// Output:
	// forward on NVM: true
	// fits: true
}

// EstimateSizes reproduces the paper's Figure 3 arithmetic for any scale.
func ExampleEstimateSizes() {
	est := semibfs.EstimateSizes(27, 16)
	fmt.Println("backward graph:", semibfs.FormatBytes(est.BackwardBytes))
	// Output:
	// backward graph: 33.0 GiB
}

// A Server is driven by its caller on the virtual clock: submit queries as
// they arrive, run the clock forward, then drain and close. Every outcome
// is a function of these calls alone.
func ExampleServer() {
	edges, err := semibfs.GenerateKronecker(10, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := semibfs.NewSystem(edges, semibfs.Options{Placement: semibfs.PlacePCIeFlash})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	srv, err := sys.NewServer(semibfs.ServerConfig{Lanes: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Three queries arrive now; two lanes take the first two at the next
	// sweep, and the third is cancelled while it waits.
	root := sys.FirstConnectedVertex()
	for range 3 {
		if _, err := srv.Submit(semibfs.Arrival{Root: root, At: srv.Now()}); err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.RunUntil(srv.Now() + 1e-6); err != nil {
		log.Fatal(err)
	}
	fmt.Println("queued:", srv.QueueDepth())
	srv.Cancel(2)
	outs, err := srv.Drain()
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outs {
		fmt.Println("query", o.ID, o.Outcome)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	_, err = srv.Submit(semibfs.Arrival{Root: root, At: srv.Now()})
	fmt.Println("closed:", errors.Is(err, semibfs.ErrServerClosed))
	// Output:
	// queued: 1
	// query 2 cancelled
	// query 0 served
	// query 1 served
	// closed: true
}
