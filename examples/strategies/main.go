// Strategies: a miniature of the paper's Figure 8/9 study, runnable in a
// second. The same select-project-join query is executed under every
// forced filtering strategy and both Bloom projection variants, so you
// can watch Pre-Filtering degrade as the visible selection widens while
// Post-Filtering stays flat — and see the planner's automatic choice.
//
// Strategies are forced per query with WithStrategy. The planner's own
// pick is inspected *before* running anything via Prepare / Plan /
// Explain.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"ghostdb"
)

var ddl = []string{
	`CREATE TABLE Readings (id int,
	   sensor_id int REFERENCES Sensors HIDDEN,
	   hour char(13), value float)`,
	`CREATE TABLE Sensors (id int, model char(20), site char(20) HIDDEN,
	   calibration float HIDDEN)`,
}

func main() {
	db, err := ghostdb.Create(ddl, ghostdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	load(db)
	ctx := context.Background()

	strategies := []struct {
		name string
		s    ghostdb.Strategy
	}{
		{"Pre-Filter", ghostdb.StrategyPreFilter},
		{"Cross-Pre-Filter", ghostdb.StrategyCrossPreFilter},
		{"Post-Filter", ghostdb.StrategyPostFilter},
		{"Cross-Post-Filter", ghostdb.StrategyCrossPostFilter},
		{"Post-Select", ghostdb.StrategyPostSelect},
		{"No-Filter", ghostdb.StrategyNoFilter},
	}
	// Visible selectivity grows left to right: model prefixes select
	// 1/20, 1/4 and 1/2 of the sensors.
	preds := []string{"model = 'M-00'", "model < 'M-05'", "model < 'M-10'"}

	for _, pred := range preds {
		sql := fmt.Sprintf(`SELECT Readings.id, Sensors.id, Sensors.site
		  FROM Readings, Sensors
		  WHERE Readings.sensor_id = Sensors.id
		  AND Sensors.%s AND Sensors.calibration < 0.2`, pred)

		// One prepared statement serves every run; forcing a strategy is
		// a per-run option, so nothing mutates the DB.
		stmt, err := db.Prepare(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("visible predicate: %s\n", pred)
		var rows int
		for _, st := range strategies {
			res, err := stmt.Run(ctx, ghostdb.WithStrategy(st.s))
			if err != nil {
				if errors.Is(err, ghostdb.ErrBloomInfeasible) {
					fmt.Printf("  %-18s infeasible (the paper stops this curve at sV=0.5 too)\n", st.name)
					continue
				}
				log.Fatal(err)
			}
			rows = len(res.Rows)
			fmt.Printf("  %-18s %10v  (flash reads %5d, writes %4d, grant %2d buffers)\n",
				st.name, res.Stats.SimTime, res.Stats.Flash.PageReads, res.Stats.Flash.PageWrites,
				res.Stats.GrantBuffers)
		}
		// The planner's automatic choice is visible before execution.
		plan := stmt.Plan()
		res, err := stmt.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Rows) != rows {
			log.Fatalf("strategy changed the answer: %d vs %d rows", len(res.Rows), rows)
		}
		fmt.Printf("  planner's choice (min %d buffers, est %v): %v -> %v, %d rows\n\n",
			plan.MinBuffers, plan.EstCost, res.Stats.Strategy, res.Stats.SimTime, len(res.Rows))
	}

	// EXPLAIN without executing: the same text the shell prints.
	out, err := db.Explain(`SELECT Readings.id, Sensors.site FROM Readings, Sensors
	  WHERE Readings.sensor_id = Sensors.id AND Sensors.model = 'M-00' AND Sensors.calibration < 0.2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}

func load(db *ghostdb.DB) {
	rng := rand.New(rand.NewSource(99))
	ld := db.Loader()
	const nSensors, nReadings = 400, 30000
	for i := 0; i < nSensors; i++ {
		if err := ld.Append("Sensors", ghostdb.R{
			"model":       fmt.Sprintf("M-%02d", i%20),
			"site":        fmt.Sprintf("site-%03d", rng.Intn(50)),
			"calibration": rng.Float64(),
		}); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < nReadings; i++ {
		if err := ld.Append("Readings", ghostdb.R{
			"sensor_id": rng.Intn(nSensors),
			"hour":      fmt.Sprintf("2006-06-%02dT%02d", 1+rng.Intn(28), rng.Intn(24)),
			"value":     20 + 5*rng.Float64(),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		log.Fatal(err)
	}
}
