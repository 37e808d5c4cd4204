package datagen

import (
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/jointree"
)

// TPCDS generates the paper's TPC-DS excerpt (scale factor 10 in the paper):
// the Store_Sales snowflake of Figure 6d with ten relations. String columns
// are dictionary-coded integers and irrelevant attributes are dropped, as in
// the paper's own preprocessing. The classification label is c_preferred
// ("predict whether a customer is a preferred customer", §4.2).
func TPCDS(cfg Config) (*Dataset, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	db := data.NewDatabase()

	nCustomers := dimScaled(500_000, cfg.Scale, 200)
	nAddresses := dimScaled(250_000, cfg.Scale, 120)
	nCDemo := dimScaled(480_000, cfg.Scale, 160)
	nHDemo := dimScaled(7_200, cfg.Scale, 40)
	nBands := 20
	nDates := dimScaled(36_000, cfg.Scale, 80)
	nTimes := dimScaled(43_000, cfg.Scale, 60)
	nItems := dimScaled(102_000, cfg.Scale, 150)
	nStores := dimScaled(502, cfg.Scale, 12)
	nSales := scaled(28_800_000, cfg.Scale, 4000)

	ds := &Dataset{Name: "tpcds", DB: db}

	// Income_Band -----------------------------------------------------------
	ib := newBuilder(db, "Income_Band", nBands)
	ibID := ib.key("ib_key", seqKeys(nBands))
	lower := make([]float64, nBands)
	upper := make([]float64, nBands)
	for i := range lower {
		lower[i] = float64(i) * 10_000
		upper[i] = lower[i] + 9_999
	}
	ds.Continuous = append(ds.Continuous,
		ib.num("ib_lower_bound", lower), ib.num("ib_upper_bound", upper))
	if _, err := ib.add(); err != nil {
		return nil, err
	}

	// Household_Demographics --------------------------------------------------
	hd := newBuilder(db, "Household_Demographics", nHDemo)
	hdID := hd.key("hd_key", seqKeys(nHDemo))
	hd.key("ib_key", uniformKeys(rng, nHDemo, nBands))
	hdBuy := hd.cat("hd_buy_potential", smallInts(rng, nHDemo, 6))
	ds.Continuous = append(ds.Continuous,
		hd.num("hd_dep_count", counts(rng, nHDemo, 2.5)),
		hd.num("hd_vehicle_count", counts(rng, nHDemo, 1.8)))
	ds.Categorical = append(ds.Categorical, hdBuy)
	if _, err := hd.add(); err != nil {
		return nil, err
	}

	// Customer_Address ---------------------------------------------------------
	ca := newBuilder(db, "Customer_Address", nAddresses)
	caID := ca.key("ca_key", seqKeys(nAddresses))
	caCity := ca.cat("ca_city", smallInts(rng, nAddresses, 40))
	caState := ca.cat("ca_state", smallInts(rng, nAddresses, 25))
	caLoc := ca.cat("ca_location_type", smallInts(rng, nAddresses, 3))
	ds.Continuous = append(ds.Continuous,
		ca.num("ca_gmt_offset", gaussian(rng, nAddresses, -6, 2, false)))
	ds.Categorical = append(ds.Categorical, caCity, caState, caLoc)
	if _, err := ca.add(); err != nil {
		return nil, err
	}

	// Customer_Demographics -----------------------------------------------------
	cd := newBuilder(db, "Customer_Demographics", nCDemo)
	cdID := cd.key("cd_key", seqKeys(nCDemo))
	cdGender := cd.cat("cd_gender", smallInts(rng, nCDemo, 2))
	cdMarital := cd.cat("cd_marital_status", smallInts(rng, nCDemo, 5))
	cdEdu := cd.cat("cd_education", smallInts(rng, nCDemo, 7))
	cdCredit := cd.cat("cd_credit_rating", smallInts(rng, nCDemo, 4))
	purchaseEst := gaussian(rng, nCDemo, 5_000, 2_800, true)
	ds.Continuous = append(ds.Continuous,
		cd.num("cd_purchase_estimate", purchaseEst),
		cd.num("cd_dep_count", counts(rng, nCDemo, 2)))
	ds.Categorical = append(ds.Categorical, cdGender, cdMarital, cdEdu, cdCredit)
	if _, err := cd.add(); err != nil {
		return nil, err
	}

	// Customer -------------------------------------------------------------------
	cu := newBuilder(db, "Customer", nCustomers)
	custID := cu.key("c_key", seqKeys(nCustomers))
	custCd := uniformKeys(rng, nCustomers, nCDemo)
	cu.key("cd_key", custCd)
	cu.key("ca_key", uniformKeys(rng, nCustomers, nAddresses))
	birthYear := gaussian(rng, nCustomers, 1972, 14, true)
	byID := cu.num("c_birth_year", birthYear)
	ds.Continuous = append(ds.Continuous, byID)
	// Preferred flag correlates with purchase estimate so classifiers can
	// learn it from joined demographics.
	pref := make([]int64, nCustomers)
	for i := range pref {
		p := 1.0 / (1.0 + math.Exp(-(purchaseEst[custCd[i]]-5_000)/1_500))
		if rng.Float64() < p {
			pref[i] = 1
		}
	}
	prefID := cu.cat("c_preferred", pref)
	if _, err := cu.add(); err != nil {
		return nil, err
	}

	// Date_dim ----------------------------------------------------------------
	dd := newBuilder(db, "Date_dim", nDates)
	dateID := dd.key("d_key", seqKeys(nDates))
	dYear := dd.cat("d_year", smallInts(rng, nDates, 6))
	dMoy := dd.cat("d_moy", smallInts(rng, nDates, 12))
	dDow := dd.cat("d_dow", smallInts(rng, nDates, 7))
	dHol := dd.cat("d_holiday", smallInts(rng, nDates, 2))
	ds.Categorical = append(ds.Categorical, dYear, dMoy, dDow, dHol)
	if _, err := dd.add(); err != nil {
		return nil, err
	}

	// Time_dim -----------------------------------------------------------------
	td := newBuilder(db, "Time_dim", nTimes)
	timeID := td.key("t_key", seqKeys(nTimes))
	tHour := td.cat("t_hour", smallInts(rng, nTimes, 24))
	tShift := td.cat("t_shift", smallInts(rng, nTimes, 3))
	ds.Categorical = append(ds.Categorical, tHour, tShift)
	if _, err := td.add(); err != nil {
		return nil, err
	}

	// Item ------------------------------------------------------------------------
	it := newBuilder(db, "Item", nItems)
	itemID := it.key("i_key", seqKeys(nItems))
	iCat := it.cat("i_category", smallInts(rng, nItems, 10))
	iClass := it.cat("i_class", smallInts(rng, nItems, 16))
	iBrand := it.cat("i_brand", smallInts(rng, nItems, 50))
	itemPrice := gaussian(rng, nItems, 55, 30, true)
	ds.Continuous = append(ds.Continuous,
		it.num("i_current_price", itemPrice),
		it.num("i_wholesale_cost", gaussian(rng, nItems, 32, 18, true)))
	ds.Categorical = append(ds.Categorical, iCat, iClass, iBrand)
	if _, err := it.add(); err != nil {
		return nil, err
	}

	// Store --------------------------------------------------------------------------
	st := newBuilder(db, "Store", nStores)
	storeID := st.key("s_key", seqKeys(nStores))
	sState := st.cat("s_state", smallInts(rng, nStores, 15))
	ds.Continuous = append(ds.Continuous,
		st.num("s_floor_space", gaussian(rng, nStores, 7_500_000, 2_000_000, true)),
		st.num("s_number_employees", gaussian(rng, nStores, 250, 60, true)),
		st.num("s_tax_percentage", gaussian(rng, nStores, 0.06, 0.02, true)))
	ds.Categorical = append(ds.Categorical, sState)
	if _, err := st.add(); err != nil {
		return nil, err
	}

	// Store_Sales (fact) ---------------------------------------------------------------
	ss := newBuilder(db, "Store_Sales", nSales)
	sCust := zipfKeys(rng, nSales, nCustomers, 1.05)
	sItem := zipfKeys(rng, nSales, nItems, 1.1)
	ss.key("c_key", sCust)
	ss.key("d_key", uniformKeys(rng, nSales, nDates))
	ss.key("t_key", uniformKeys(rng, nSales, nTimes))
	ss.key("i_key", sItem)
	ss.key("s_key", uniformKeys(rng, nSales, nStores))
	ss.key("hd_key", uniformKeys(rng, nSales, nHDemo))
	qty := counts(rng, nSales, 3)
	for i := range qty {
		qty[i]++
	}
	qtyID := ss.num("ss_quantity", qty)
	salesPrice := make([]float64, nSales)
	netProfit := make([]float64, nSales)
	for i := range salesPrice {
		salesPrice[i] = itemPrice[sItem[i]] * (0.8 + 0.4*rng.Float64())
		netProfit[i] = salesPrice[i]*qty[i]*0.2 + 5*rng.NormFloat64()
	}
	spID := ss.num("ss_sales_price", salesPrice)
	npID := ss.num("ss_net_profit", netProfit)
	ds.Continuous = append(ds.Continuous, qtyID, spID, npID,
		ss.num("ss_ext_discount_amt", gaussian(rng, nSales, 8, 6, true)))
	if _, err := ss.add(); err != nil {
		return nil, err
	}

	tree, err := jointree.Build(db)
	if err != nil {
		return nil, err
	}
	ds.Tree = tree
	ds.Label = prefID
	ds.JoinKeys = []data.AttrID{custID, caID, cdID, hdID, ibID, dateID, timeID,
		itemID, storeID}
	// Paper setup: MI over 19 attributes for TPC-DS.
	ds.MIAttrs = []data.AttrID{hdBuy, caCity, caState, caLoc, cdGender,
		cdMarital, cdEdu, cdCredit, dYear, dMoy, dDow, dHol, tHour, tShift,
		iCat, iClass, iBrand, sState, prefID}
	ds.CubeDims = []data.AttrID{iCat, sState, dYear}
	ds.CubeMeasures = []data.AttrID{qtyID, spID, npID,
		mustAttr(db, "ss_ext_discount_amt"), mustAttr(db, "i_current_price")}
	ds.Categorical = append(ds.Categorical, prefID)
	return ds, nil
}
