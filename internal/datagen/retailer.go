package datagen

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/jointree"
)

// Retailer generates the US-retailer forecasting dataset (paper Appendix A):
// a snowflake around the Inventory fact table.
//
//	Inventory(locn, dateid, ksn, inventoryunits)            ~84M @ scale 1
//	Location(locn, zip, rgn_cd, clim_zn_nbr, 12 distances)  ~1.3k
//	Census(zip, 14 demographic attributes)                  ~1.3k
//	Items(ksn, subcategory, category, categoryCluster, prices) ~5.6k
//	Weather(locn, dateid, rain, snow, maxtemp, mintemp, meanwind, thunder) ~1.2M
//
// Join tree (paper Figure 6a): Inventory—{Items, Weather, Location—Census}.
// The regression label is inventoryunits (paper §4.2 predicts the number of
// inventory units).
func Retailer(cfg Config) (*Dataset, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := data.NewDatabase()

	nLocations := dimScaled(1317, cfg.Scale, 24)
	nZips := nLocations // one zip per location, several locations may share
	nItems := dimScaled(5618, cfg.Scale, 120)
	nDates := dimScaled(1680, cfg.Scale, 90)
	nInventory := scaled(84_000_000, cfg.Scale, 4000)
	nWeather := nLocations * nDates / 2 // weather recorded for half the pairs

	ds := &Dataset{Name: "retailer", DB: db}

	// Location ---------------------------------------------------------
	loc := newBuilder(db, "Location", nLocations)
	locnID := loc.key("locn", seqKeys(nLocations))
	zipVals := make([]int64, nLocations)
	for i := range zipVals {
		zipVals[i] = int64(rng.Intn(nZips))
	}
	zipID := loc.key("zip", zipVals)
	loc.cat("rgn_cd", smallInts(rng, nLocations, 6))
	loc.cat("clim_zn_nbr", smallInts(rng, nLocations, 8))
	totArea := gaussian(rng, nLocations, 120_000, 30_000, true)
	ds.Continuous = append(ds.Continuous,
		loc.num("total_area_sq_ft", totArea),
		loc.num("sell_area_sq_ft", gaussian(rng, nLocations, 90_000, 20_000, true)),
		loc.num("avghhi", gaussian(rng, nLocations, 65_000, 18_000, true)),
		loc.num("supertargetdistance", gaussian(rng, nLocations, 18, 9, true)),
		loc.num("supertargetdrivetime", gaussian(rng, nLocations, 26, 12, true)),
		loc.num("targetdistance", gaussian(rng, nLocations, 9, 5, true)),
		loc.num("targetdrivetime", gaussian(rng, nLocations, 15, 7, true)),
		loc.num("walmartdistance", gaussian(rng, nLocations, 6, 4, true)),
		loc.num("walmartdrivetime", gaussian(rng, nLocations, 11, 6, true)),
		loc.num("walmartsupercenterdistance", gaussian(rng, nLocations, 10, 6, true)),
		loc.num("walmartsupercenterdrivetime", gaussian(rng, nLocations, 16, 8, true)),
	)
	if _, err := loc.add(); err != nil {
		return nil, err
	}

	// Census ------------------------------------------------------------
	cen := newBuilder(db, "Census", nZips)
	cen.key("zip", seqKeys(nZips))
	population := gaussian(rng, nZips, 32_000, 12_000, true)
	ds.Continuous = append(ds.Continuous,
		cen.num("population", population),
		cen.num("white", gaussian(rng, nZips, 20_000, 9_000, true)),
		cen.num("asian", gaussian(rng, nZips, 2_500, 1_800, true)),
		cen.num("pacific", gaussian(rng, nZips, 150, 120, true)),
		cen.num("blackafrican", gaussian(rng, nZips, 4_200, 3_000, true)),
		cen.num("medianage", gaussian(rng, nZips, 38, 7, true)),
		cen.num("occupiedhouseunits", gaussian(rng, nZips, 12_000, 4_000, true)),
		cen.num("houseunits", gaussian(rng, nZips, 13_500, 4_500, true)),
		cen.num("families", gaussian(rng, nZips, 8_200, 2_800, true)),
		cen.num("households", gaussian(rng, nZips, 11_900, 4_100, true)),
		cen.num("husbwife", gaussian(rng, nZips, 6_100, 2_100, true)),
		cen.num("males", gaussian(rng, nZips, 15_800, 6_000, true)),
		cen.num("females", gaussian(rng, nZips, 16_200, 6_100, true)),
		cen.num("householdschildren", gaussian(rng, nZips, 4_100, 1_500, true)),
		cen.num("hispanic", gaussian(rng, nZips, 5_300, 4_000, true)),
	)
	if _, err := cen.add(); err != nil {
		return nil, err
	}

	// Items --------------------------------------------------------------
	itm := newBuilder(db, "Items", nItems)
	ksnID := itm.key("ksn", seqKeys(nItems))
	subcat := itm.cat("subcategory", smallInts(rng, nItems, 40))
	category := itm.cat("category", smallInts(rng, nItems, 12))
	cluster := itm.cat("categoryCluster", smallInts(rng, nItems, 5))
	prices := gaussian(rng, nItems, 24, 14, true)
	priceID := itm.num("prices", prices)
	ds.Continuous = append(ds.Continuous, priceID)
	ds.Categorical = append(ds.Categorical, subcat, category, cluster)
	if _, err := itm.add(); err != nil {
		return nil, err
	}

	// Weather -------------------------------------------------------------
	wea := newBuilder(db, "Weather", nWeather)
	wLocn := make([]int64, nWeather)
	wDate := make([]int64, nWeather)
	for i := 0; i < nWeather; i++ {
		wLocn[i] = int64(i % nLocations)
		wDate[i] = int64((i / nLocations) * 2 % nDates)
	}
	wea.key("locn", wLocn)
	dateID := wea.key("dateid", wDate)
	rain := wea.cat("rain", smallInts(rng, nWeather, 2))
	snow := wea.cat("snow", smallInts(rng, nWeather, 2))
	maxTemp := gaussian(rng, nWeather, 66, 18, false)
	ds.Continuous = append(ds.Continuous,
		wea.num("maxtemp", maxTemp),
		wea.num("mintemp", gaussian(rng, nWeather, 46, 16, false)),
		wea.num("meanwind", gaussian(rng, nWeather, 8, 4, true)),
	)
	thunder := wea.cat("thunder", smallInts(rng, nWeather, 2))
	ds.Categorical = append(ds.Categorical, rain, snow, thunder)
	if _, err := wea.add(); err != nil {
		return nil, err
	}

	// Inventory (fact) ------------------------------------------------------
	// Inventory only records (locn, date) pairs with a weather observation,
	// so the join result stays ≈ the fact table (paper Table 1: 86M joined
	// tuples from an 84M-row Inventory).
	inv := newBuilder(db, "Inventory", nInventory)
	iLocn := make([]int64, nInventory)
	iDate := make([]int64, nInventory)
	for i := 0; i < nInventory; i++ {
		r := rng.Intn(nWeather)
		iLocn[i] = wLocn[r]
		iDate[i] = wDate[r]
	}
	iKsn := zipfKeys(rng, nInventory, nItems, 1.2)
	inv.key("locn", iLocn)
	inv.key("dateid", iDate)
	inv.key("ksn", iKsn)
	// inventoryunits correlates with item price and store size so the
	// regression model has signal.
	units := make([]float64, nInventory)
	for i := range units {
		units[i] = 0.4*prices[iKsn[i]] + totArea[iLocn[i]]/20_000 +
			3*rng.NormFloat64() + 8
		if units[i] < 0 {
			units[i] = 0
		}
	}
	unitsID := inv.num("inventoryunits", units)
	if _, err := inv.add(); err != nil {
		return nil, err
	}

	tree, err := jointree.Build(db)
	if err != nil {
		return nil, err
	}
	ds.Tree = tree
	ds.Label = unitsID
	ds.JoinKeys = []data.AttrID{locnID, zipID, ksnID, dateID}
	// Paper setup: MI over 9 attributes (categorical + discrete continuous).
	ds.MIAttrs = []data.AttrID{subcat, category, cluster, rain, snow, thunder,
		mustAttr(db, "rgn_cd"), mustAttr(db, "clim_zn_nbr"), zipID}
	ds.CubeDims = []data.AttrID{category, mustAttr(db, "rgn_cd"), rain}
	ds.CubeMeasures = []data.AttrID{unitsID, priceID,
		mustAttr(db, "maxtemp"), mustAttr(db, "avghhi"), mustAttr(db, "population")}
	ds.Categorical = append(ds.Categorical,
		mustAttr(db, "rgn_cd"), mustAttr(db, "clim_zn_nbr"))
	return ds, nil
}

func mustAttr(db *data.Database, name string) data.AttrID {
	id, ok := db.AttrByName(name)
	if !ok {
		panic("datagen: missing attribute " + name)
	}
	return id
}
