package datagen

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/jointree"
)

// Favorita generates the Corporación Favorita grocery-forecasting dataset
// (paper Figure 3 / Appendix A): a star around the Sales fact table.
//
//	Sales(date, store, item, unit_sales, onpromotion)   ~125M @ scale 1
//	Items(item, family, class, perishable)              ~4.1k
//	Stores(store, city, state, stype, cluster)          ~54
//	Transactions(date, store, txns)                     ~83k
//	Oil(date, price)                                    ~1.2k
//	Holidays(date, htype, locale, transferred)          ~350
//
// The regression label is unit_sales (paper §4.2 predicts units sold).
func Favorita(cfg Config) (*Dataset, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	db := data.NewDatabase()

	nDates := dimScaled(1684, cfg.Scale, 80)
	nStores := dimScaled(54, cfg.Scale, 18)
	nItems := dimScaled(4100, cfg.Scale, 100)
	nSales := scaled(125_000_000, cfg.Scale, 5000)

	ds := &Dataset{Name: "favorita", DB: db}

	// Items ---------------------------------------------------------------
	itm := newBuilder(db, "Items", nItems)
	itemID := itm.key("item", seqKeys(nItems))
	family := itm.cat("family", smallInts(rng, nItems, 33))
	class := itm.cat("class", smallInts(rng, nItems, 60))
	perishable := itm.cat("perishable", smallInts(rng, nItems, 2))
	if _, err := itm.add(); err != nil {
		return nil, err
	}

	// Stores ----------------------------------------------------------------
	st := newBuilder(db, "Stores", nStores)
	storeID := st.key("store", seqKeys(nStores))
	city := st.cat("city", smallInts(rng, nStores, 22))
	state := st.cat("state", smallInts(rng, nStores, 16))
	stype := st.cat("stype", smallInts(rng, nStores, 5))
	cluster := st.cat("cluster", smallInts(rng, nStores, 17))
	if _, err := st.add(); err != nil {
		return nil, err
	}

	// Oil ------------------------------------------------------------------
	oil := newBuilder(db, "Oil", nDates)
	dateID := oil.key("date", seqKeys(nDates))
	oilPrices := gaussian(rng, nDates, 62, 18, true)
	priceID := oil.num("oil_price", oilPrices)
	// 7-day moving average: a standard engineered forecasting feature.
	ma := make([]float64, nDates)
	for i := range ma {
		lo := i - 6
		if lo < 0 {
			lo = 0
		}
		s := 0.0
		for j := lo; j <= i; j++ {
			s += oilPrices[j]
		}
		ma[i] = s / float64(i-lo+1)
	}
	priceMaID := oil.num("oil_price_ma7", ma)
	if _, err := oil.add(); err != nil {
		return nil, err
	}

	// Holidays (one row per date; htype 0 means "no holiday") ---------------
	hol := newBuilder(db, "Holidays", nDates)
	hol.key("date", seqKeys(nDates))
	htype := hol.cat("htype", smallInts(rng, nDates, 6))
	locale := hol.cat("locale", smallInts(rng, nDates, 3))
	transferred := hol.cat("transferred", smallInts(rng, nDates, 2))
	if _, err := hol.add(); err != nil {
		return nil, err
	}

	// Transactions (one row per date×store) --------------------------------
	nTx := nDates * nStores
	tx := newBuilder(db, "Transactions", nTx)
	tDate := make([]int64, nTx)
	tStore := make([]int64, nTx)
	for i := 0; i < nTx; i++ {
		tDate[i] = int64(i / nStores)
		tStore[i] = int64(i % nStores)
	}
	tx.key("date", tDate)
	tx.key("store", tStore)
	txnsVals := gaussian(rng, nTx, 1700, 600, true)
	txnsID := tx.num("txns", txnsVals)
	txnsLag := make([]float64, nTx)
	for i := range txnsLag {
		if i >= nStores {
			txnsLag[i] = txnsVals[i-nStores] // same store, previous date
		} else {
			txnsLag[i] = txnsVals[i]
		}
	}
	txnsLagID := tx.num("txns_lag1", txnsLag)
	if _, err := tx.add(); err != nil {
		return nil, err
	}

	// Sales (fact) -----------------------------------------------------------
	sl := newBuilder(db, "Sales", nSales)
	sDate := uniformKeys(rng, nSales, nDates)
	sStore := uniformKeys(rng, nSales, nStores)
	sItem := zipfKeys(rng, nSales, nItems, 1.1)
	sl.key("date", sDate)
	sl.key("store", sStore)
	sl.key("item", sItem)
	promo := smallInts(rng, nSales, 2)
	promoID := sl.cat("onpromotion", promo)
	units := make([]float64, nSales)
	for i := range units {
		units[i] = 2 + 0.003*txnsVals[sDate[i]*int64(nStores)+sStore[i]] +
			3*float64(promo[i]) + 1.5*rng.NormFloat64()
		if units[i] < 0 {
			units[i] = 0
		}
	}
	unitsID := sl.num("unit_sales", units)
	if _, err := sl.add(); err != nil {
		return nil, err
	}

	tree, err := jointree.Build(db)
	if err != nil {
		return nil, err
	}
	ds.Tree = tree
	ds.Label = unitsID
	ds.JoinKeys = []data.AttrID{dateID, storeID, itemID}
	ds.Continuous = []data.AttrID{priceID, priceMaID, txnsID, txnsLagID}
	ds.Categorical = []data.AttrID{family, class, perishable, city, state,
		stype, cluster, htype, locale, transferred, promoID}
	// Paper setup: MI over 15 attributes for Favorita (all categorical plus
	// some discrete keys).
	ds.MIAttrs = append([]data.AttrID{}, ds.Categorical...)
	ds.MIAttrs = append(ds.MIAttrs, storeID, dateID, itemID)
	ds.MIAttrs = sortAttrsUnique(ds.MIAttrs)
	ds.CubeDims = []data.AttrID{family, city, htype}
	ds.CubeMeasures = []data.AttrID{unitsID, priceID, priceMaID, txnsID, txnsLagID}
	return ds, nil
}

func sortAttrsUnique(ids []data.AttrID) []data.AttrID {
	seen := map[data.AttrID]bool{}
	var out []data.AttrID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
