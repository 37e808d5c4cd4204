package data

import "fmt"

// Database holds the attribute registry, dictionaries for categorical
// attributes, and the set of base relations. Natural-join semantics across
// relations are defined by shared AttrIDs.
type Database struct {
	attrs     []Attribute
	byName    map[string]AttrID
	dicts     map[AttrID]*Dictionary
	relations []*Relation
	relByName map[string]*Relation
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		byName:    make(map[string]AttrID),
		dicts:     make(map[AttrID]*Dictionary),
		relByName: make(map[string]*Relation),
	}
}

// Attr registers (or returns the existing) attribute with the given name and
// kind. Registering the same name with a different kind is an error surfaced
// via panic, since it indicates a programming mistake in schema construction.
func (db *Database) Attr(name string, kind Kind) AttrID {
	if id, ok := db.byName[name]; ok {
		if db.attrs[id].Kind != kind {
			panic(fmt.Sprintf("data: attribute %q redeclared with kind %v (was %v)",
				name, kind, db.attrs[id].Kind))
		}
		return id
	}
	id := AttrID(len(db.attrs))
	db.attrs = append(db.attrs, Attribute{ID: id, Name: name, Kind: kind})
	db.byName[name] = id
	if kind == Categorical {
		db.dicts[id] = NewDictionary()
	}
	return id
}

// AttrByName returns the AttrID for name.
func (db *Database) AttrByName(name string) (AttrID, bool) {
	id, ok := db.byName[name]
	return id, ok
}

// Attribute returns the attribute metadata for id.
func (db *Database) Attribute(id AttrID) Attribute { return db.attrs[id] }

// NumAttrs returns the number of registered attributes.
func (db *Database) NumAttrs() int { return len(db.attrs) }

// Dict returns the dictionary for a categorical attribute (nil otherwise).
func (db *Database) Dict(id AttrID) *Dictionary { return db.dicts[id] }

// AddRelation registers rel with the database after validating it.
func (db *Database) AddRelation(rel *Relation) error {
	if _, dup := db.relByName[rel.Name]; dup {
		return fmt.Errorf("data: duplicate relation %q", rel.Name)
	}
	if err := rel.validate(db); err != nil {
		return fmt.Errorf("data: relation %q: %w", rel.Name, err)
	}
	db.relations = append(db.relations, rel)
	db.relByName[rel.Name] = rel
	return nil
}

// Relations returns the registered relations in registration order.
func (db *Database) Relations() []*Relation { return db.relations }

// Relation returns the relation with the given name, or nil.
func (db *Database) Relation(name string) *Relation { return db.relByName[name] }

// AttrNames formats a list of attribute IDs as their names.
func (db *Database) AttrNames(ids []AttrID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = db.attrs[id].Name
	}
	return out
}

// TotalTuples returns the sum of relation cardinalities.
func (db *Database) TotalTuples() int {
	n := 0
	for _, r := range db.relations {
		n += r.Len()
	}
	return n
}

// SizeBytes returns the in-memory payload size of all relations.
func (db *Database) SizeBytes() int64 {
	var n int64
	for _, r := range db.relations {
		n += int64(r.Len()) * int64(len(r.Attrs)) * 8
	}
	return n
}
