package datagen

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/jointree"
)

// Yelp generates the Yelp Dataset Challenge schema (paper Appendix A): a star
// around Review with many-to-many joins through Category and Attribute, which
// is why the join result (360M tuples @ scale 1) vastly exceeds the database
// (8.7M tuples) — the property that makes factorized evaluation shine.
//
//	Review(user, business, review_stars, review_year, useful)
//	User(user, user_review_count, user_avg_stars, user_years, fans)
//	Business(business, b_city, b_state, b_stars, b_review_count, b_open)
//	Category(business, category)   — several per business
//	Attribute(business, attribute) — several per business
//
// The prediction target is review_stars (paper: "review ratings that users
// give to businesses").
func Yelp(cfg Config) (*Dataset, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	db := data.NewDatabase()

	nUsers := dimScaled(252_000, cfg.Scale, 150)
	nBusinesses := dimScaled(80_000, cfg.Scale, 60)
	nReviews := scaled(4_700_000, cfg.Scale, 3000)
	avgCats := 4
	avgAttrs := 8

	ds := &Dataset{Name: "yelp", DB: db}

	// User -----------------------------------------------------------------
	us := newBuilder(db, "User", nUsers)
	userID := us.key("user", seqKeys(nUsers))
	userStars := gaussian(rng, nUsers, 3.7, 0.7, true)
	ds.Continuous = append(ds.Continuous,
		us.num("user_review_count", counts(rng, nUsers, 18)),
		us.num("user_avg_stars", userStars),
		us.num("user_years", counts(rng, nUsers, 5)),
		us.num("fans", counts(rng, nUsers, 2)),
	)
	if _, err := us.add(); err != nil {
		return nil, err
	}

	// Business ----------------------------------------------------------------
	bs := newBuilder(db, "Business", nBusinesses)
	businessID := bs.key("business", seqKeys(nBusinesses))
	bCity := bs.cat("b_city", smallInts(rng, nBusinesses, 30))
	bState := bs.cat("b_state", smallInts(rng, nBusinesses, 12))
	bStars := gaussian(rng, nBusinesses, 3.5, 0.8, true)
	bStarsID := bs.num("b_stars", bStars)
	bCountID := bs.num("b_review_count", counts(rng, nBusinesses, 40))
	bOpen := bs.cat("b_open", smallInts(rng, nBusinesses, 2))
	ds.Continuous = append(ds.Continuous, bStarsID, bCountID)
	ds.Categorical = append(ds.Categorical, bCity, bState, bOpen)
	if _, err := bs.add(); err != nil {
		return nil, err
	}

	// Category (many-to-many) -----------------------------------------------
	nCat := nBusinesses * avgCats
	ct := newBuilder(db, "Category", nCat)
	catBus := make([]int64, nCat)
	for i := range catBus {
		catBus[i] = int64(i % nBusinesses)
	}
	ct.key("business", catBus)
	category := ct.cat("category", smallInts(rng, nCat, 25))
	if _, err := ct.add(); err != nil {
		return nil, err
	}

	// Attribute (many-to-many) ------------------------------------------------
	nAttr := nBusinesses * avgAttrs
	at := newBuilder(db, "Attribute", nAttr)
	attrBus := make([]int64, nAttr)
	for i := range attrBus {
		attrBus[i] = int64(i % nBusinesses)
	}
	at.key("business", attrBus)
	attribute := at.cat("attribute", smallInts(rng, nAttr, 40))
	if _, err := at.add(); err != nil {
		return nil, err
	}

	// Review (fact) -----------------------------------------------------------
	rv := newBuilder(db, "Review", nReviews)
	rUser := zipfKeys(rng, nReviews, nUsers, 1.1)
	rBus := zipfKeys(rng, nReviews, nBusinesses, 1.1)
	rv.key("user", rUser)
	rv.key("business", rBus)
	stars := make([]float64, nReviews)
	for i := range stars {
		s := 0.5*bStars[rBus[i]] + 0.4*userStars[rUser[i]] + 0.8*rng.NormFloat64() + 1.4
		if s < 1 {
			s = 1
		}
		if s > 5 {
			s = 5
		}
		stars[i] = float64(int(s + 0.5))
	}
	starsID := rv.num("review_stars", stars)
	yearID := rv.cat("review_year", smallInts(rng, nReviews, 13))
	usefulID := rv.num("useful", counts(rng, nReviews, 1.4))
	ds.Continuous = append(ds.Continuous, usefulID)
	if _, err := rv.add(); err != nil {
		return nil, err
	}

	tree, err := jointree.Build(db)
	if err != nil {
		return nil, err
	}
	ds.Tree = tree
	ds.Label = starsID
	ds.JoinKeys = []data.AttrID{userID, businessID}
	ds.Categorical = append(ds.Categorical, category, attribute, yearID)
	// Paper setup: MI over 11 attributes for Yelp.
	ds.MIAttrs = []data.AttrID{bCity, bState, bOpen, category, attribute, yearID}
	ds.CubeDims = []data.AttrID{bCity, category, yearID}
	ds.CubeMeasures = []data.AttrID{starsID, usefulID, bStarsID, bCountID,
		mustAttr(db, "user_avg_stars")}
	return ds, nil
}
