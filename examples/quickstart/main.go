// Quickstart: stand up the OSDC federation, enroll a researcher, provision
// VMs on both cloud stacks through Tukey, store and share data, mint a
// dataset ARK, and read the first month's bill.
package main

import (
	"fmt"
	"log"

	"osdc/internal/ark"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

func main() {
	// 1. The federation: four sites, five clusters, all services (Fig 3),
	// with both clouds serving their native APIs and wired into Tukey
	// (Fig 1). No clock driver: the engine advances when we say so.
	d, err := core.StartConsole(core.ConsoleConfig{Seed: 7, Scale: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	f := d.Fed
	cores, disk := f.Totals()
	fmt.Printf("OSDC up: %d cores, %.1f PB across %d clusters\n",
		cores, float64(disk)/1024, len(f.Inventory()))

	// 2. Enroll a researcher and log in via the campus Shibboleth IdP.
	f.EnrollResearcher("grace", "hopper")
	f.Adler.SetQuota("grace", iaas.Quota{MaxInstances: 10, MaxCores: 64})
	f.Sullivan.SetQuota("grace", iaas.Quota{MaxInstances: 10, MaxCores: 64})
	token, err := f.Tukey.Login(tukey.Shibboleth, "grace", "hopper")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("logged in via shibboleth:", token)

	// 3. One VM per stack through the same canonical API.
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		srv, err := f.Tukey.LaunchServer(token, cloud, "analysis", "m1.large")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("launched %s on %s (%s)\n", srv.ID, cloud, srv.Status)
	}
	servers, err := f.Tukey.ListServers(token)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregated view: %d servers across %d stacks\n", len(servers), 2)

	// 4. Share a result file with a collaborator group.
	f.Sharing.AddUser("barbara")
	f.DropDir.Drop("grace", "/share/grace/results.csv", []byte("gene,expr\nBRCA2,7.2\n"))
	f.Engine.RunFor(15) // the drop-directory daemon's scan tick
	coll, err := f.Sharing.NewCollection("grace", "paper-artifacts")
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Sharing.AddFileToCollection("grace", coll.ID, "/share/grace/results.csv"); err != nil {
		log.Fatal(err)
	}
	if err := f.Sharing.Grant("grace", coll.ID, "user:barbara", 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shared results.csv with barbara:",
		f.Sharing.CanRead("barbara", "/share/grace/results.csv"))

	// 5. Mint a permanent ID for the dataset (§6.1).
	rec := f.IDs.Mint(ark.Metadata{
		Who: "grace", What: "expression results", When: "2012-10",
		Where: "/share/grace/results.csv",
	})
	loc, _ := f.IDs.Resolve(rec.ARK)
	fmt.Printf("minted %s → %s\n", rec.ARK, loc)

	// 6. Browse public data (§6.3).
	hits := f.Catalog.Search("genomes")
	fmt.Printf("public catalog: %d datasets match 'genomes' (of %d, %.0f TB total)\n",
		len(hits), len(f.Catalog.All()), float64(f.Catalog.TotalBytes())/float64(core.TB))

	// 7. A month passes; the bill arrives (§6.4).
	f.Engine.RunFor(31 * sim.Day)
	for _, inv := range f.Biller.Invoices("grace") {
		fmt.Printf("invoice cycle %d: %.0f core-hours → $%.2f\n",
			inv.Cycle, inv.CoreHours, inv.Total)
	}
}
