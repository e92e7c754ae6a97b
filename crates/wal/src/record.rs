//! Typed log records and their binary codec.
//!
//! One [`WalRecord`] per store mutation. The codec is *canonical*: map-
//! backed catalog state (ref domains, fan-outs, histograms) serializes in
//! sorted key order, so `encode(decode(bytes)) == bytes` for every valid
//! encoding — the property the proptest suite round-trips on (neither
//! [`oodb_object::Schema`] nor [`oodb_object::Catalog`] implements
//! `PartialEq`, so re-encoding *is* the equality check).
//!
//! Objects are logged the way the store holds them: an `InsertColumns`
//! record carries one value vector per field of the type's layout, each
//! value in the [`crate::codec`] value encoding. A checkpoint's record shares
//! the store's columns, and replay hands the decoded ones to
//! [`oodb_storage::Store::insert_columns`] as they are.
//!
//! Decoding is total and allocation-bounded, and checks only bytes: every
//! length is checked against the remaining input before use, and unknown
//! tags, bad UTF-8, malformed histogram parts and trailing bytes are
//! typed errors. What a well-formed schema and catalog are is the object
//! model's rule, not the codec's: a decoded schema goes through
//! [`oodb_object::schema::SchemaBuilder::try_build`], whose refusal is
//! [`DecodeError::Schema`], and a decoded catalog meets
//! [`oodb_object::Catalog::check`] where the store takes it. Nothing
//! panics on arbitrary input.

use crate::codec::{encode_value, put_str, DecodeError, Reader};
use oodb_object::{
    AttrType, Catalog, CollectionDef, CollectionId, CollectionKind, FieldId, FieldKind, Histogram,
    IndexDef, Oid, Schema, TypeId, Value,
};
use std::sync::Arc;

/// One logged store mutation. The live write path appends these *before*
/// applying them; recovery replays the same records through the same
/// apply function (`crate::durable::apply_record`), so replayed state
/// matches applied state by construction.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Database birth (or checkpoint base): schema + catalog, including
    /// the catalog's exact statistics epoch.
    Genesis {
        /// The schema (types and fields, reconstructed id-exact).
        schema: Schema,
        /// The catalog, carrying collections, indexes, statistics, and
        /// the statistics epoch at logging time.
        catalog: Catalog,
    },
    /// Bulk population of one type's page region
    /// ([`oodb_storage::Store::insert_columns`]).
    InsertColumns {
        /// The populated type.
        ty: TypeId,
        /// Per-object byte size the region is packed at (page-geometry
        /// fidelity on replay).
        obj_bytes: u32,
        /// How many instances, with OID sequences `0..population`.
        population: u32,
        /// One value vector per field of the type's layout, each holding
        /// every instance's value in OID order.
        columns: Vec<Arc<Vec<Value>>>,
    },
    /// Collection membership assignment
    /// ([`oodb_storage::Store::set_members`]).
    SetMembers {
        /// The collection.
        coll: CollectionId,
        /// Members in storage order.
        oids: Vec<Oid>,
    },
    /// Catalog replacement ([`oodb_storage::Store::set_catalog`] — index
    /// availability sweeps).
    SetCatalog {
        /// The replacement catalog.
        catalog: Catalog,
    },
    /// Index (re)materialization
    /// ([`oodb_storage::Store::try_rebuild_indexes`]). Checkpoints log it
    /// with `bump_epoch = false` so replay lands on the checkpointed
    /// epoch exactly; live rebuilds log `true`.
    BuildIndexes {
        /// Whether the statistics epoch advances.
        bump_epoch: bool,
    },
    /// Statistics refresh (histogram collection + catalog swap + index
    /// rebuild, the `QueryService::refresh_statistics` composite).
    StatsRefresh {
        /// Equi-depth bucket count.
        buckets: u32,
    },
}

const TAG_GENESIS: u8 = 0x01;
// 0x02 was the insert record that carried objects as 4 KiB slotted-page
// images; it is not reused, so an old log is a `BadTag`, never a misread.
const TAG_SET_MEMBERS: u8 = 0x03;
const TAG_SET_CATALOG: u8 = 0x04;
const TAG_BUILD_INDEXES: u8 = 0x05;
const TAG_STATS_REFRESH: u8 = 0x06;
const TAG_INSERT_COLUMNS: u8 = 0x07;

// ---- schema codec ---------------------------------------------------------

fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    out.extend_from_slice(&(schema.type_count() as u32).to_le_bytes());
    for (_, t) in schema.types() {
        put_str(out, &t.name);
        match t.supertype {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&(s.index() as u32).to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(schema.field_count() as u32).to_le_bytes());
    for i in 0..schema.field_count() {
        let f = schema.field(FieldId::from_index(i));
        out.extend_from_slice(&(f.owner.index() as u32).to_le_bytes());
        put_str(out, &f.name);
        match f.kind {
            FieldKind::Attr(a) => {
                out.push(0);
                out.push(match a {
                    AttrType::Int => 0,
                    AttrType::Float => 1,
                    AttrType::Str => 2,
                    AttrType::Bool => 3,
                    AttrType::Date => 4,
                });
            }
            FieldKind::Ref(t) => {
                out.push(1);
                out.extend_from_slice(&(t.index() as u32).to_le_bytes());
            }
            FieldKind::RefSet(t) => {
                out.push(2);
                out.extend_from_slice(&(t.index() as u32).to_le_bytes());
            }
        }
    }
}

fn decode_schema(r: &mut Reader<'_>) -> Result<Schema, DecodeError> {
    // Declared in encoded order, so ids come out dense and identical to
    // the encoded schema's (the `field_count` invariant); the builder
    // refuses what breaks the object model's rules.
    let mut b = Schema::builder();
    let n_types = r.count(5)?;
    for _ in 0..n_types {
        let name = r.str()?;
        let supertype = match r.u8()? {
            0 => None,
            1 => Some(TypeId::from_index(r.u32()? as usize)),
            t => return Err(DecodeError::BadTag(t)),
        };
        b.add_type(&name, supertype);
    }
    let n_fields = r.count(10)?;
    for _ in 0..n_fields {
        let owner = TypeId::from_index(r.u32()? as usize);
        let name = r.str()?;
        let kind = match r.u8()? {
            0 => FieldKind::Attr(match r.u8()? {
                0 => AttrType::Int,
                1 => AttrType::Float,
                2 => AttrType::Str,
                3 => AttrType::Bool,
                4 => AttrType::Date,
                t => return Err(DecodeError::BadTag(t)),
            }),
            1 => FieldKind::Ref(TypeId::from_index(r.u32()? as usize)),
            2 => FieldKind::RefSet(TypeId::from_index(r.u32()? as usize)),
            t => return Err(DecodeError::BadTag(t)),
        };
        b.add_field(owner, &name, kind);
    }
    b.try_build().map_err(DecodeError::Schema)
}

// ---- catalog codec --------------------------------------------------------

pub(crate) fn encode_catalog(catalog: &Catalog, out: &mut Vec<u8>) {
    out.extend_from_slice(&catalog.stats_epoch().to_le_bytes());

    let colls: Vec<_> = catalog.collections().collect();
    out.extend_from_slice(&(colls.len() as u32).to_le_bytes());
    for (_, c) in &colls {
        put_str(out, &c.name);
        out.extend_from_slice(&(c.elem_type.index() as u32).to_le_bytes());
        out.push(match c.kind {
            CollectionKind::UserSet => 0,
            CollectionKind::Extent => 1,
        });
        out.extend_from_slice(&c.cardinality.to_le_bytes());
        out.extend_from_slice(&c.obj_bytes.to_le_bytes());
    }

    let idxs: Vec<_> = catalog.indexes().collect();
    out.extend_from_slice(&(idxs.len() as u32).to_le_bytes());
    for (_, d) in &idxs {
        put_str(out, &d.name);
        out.extend_from_slice(&(d.collection.index() as u32).to_le_bytes());
        out.extend_from_slice(&(d.path.len() as u32).to_le_bytes());
        for f in &d.path {
            out.extend_from_slice(&(f.index() as u32).to_le_bytes());
        }
        out.extend_from_slice(&(d.key.index() as u32).to_le_bytes());
        out.extend_from_slice(&d.distinct_keys.to_le_bytes());
        out.push(d.clustered as u8);
    }

    // Map-backed state in sorted key order (canonical form).
    let mut domains: Vec<_> = catalog.ref_domains().collect();
    domains.sort();
    out.extend_from_slice(&(domains.len() as u32).to_le_bytes());
    for (f, c) in domains {
        out.extend_from_slice(&(f.index() as u32).to_le_bytes());
        out.extend_from_slice(&(c.index() as u32).to_le_bytes());
    }

    let mut fanouts: Vec<_> = catalog.fanouts().collect();
    fanouts.sort_by_key(|(f, _)| *f);
    out.extend_from_slice(&(fanouts.len() as u32).to_le_bytes());
    for (f, v) in fanouts {
        out.extend_from_slice(&(f.index() as u32).to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }

    let mut hists: Vec<_> = catalog.histograms().collect();
    hists.sort_by_key(|((c, p, k), _)| (*c, p.to_vec(), *k));
    out.extend_from_slice(&(hists.len() as u32).to_le_bytes());
    for ((c, p, k), h) in hists {
        out.extend_from_slice(&(c.index() as u32).to_le_bytes());
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        for f in p {
            out.extend_from_slice(&(f.index() as u32).to_le_bytes());
        }
        out.extend_from_slice(&(k.index() as u32).to_le_bytes());
        out.extend_from_slice(&(h.bounds().len() as u32).to_le_bytes());
        for v in h.bounds() {
            encode_value(v, out);
        }
        out.extend_from_slice(&h.total().to_le_bytes());
        out.extend_from_slice(&h.distinct().to_le_bytes());
    }
}

fn decode_catalog(r: &mut Reader<'_>) -> Result<Catalog, DecodeError> {
    let epoch = r.u64()?;
    let mut catalog = Catalog::new();

    let n_colls = r.count(18)?;
    for _ in 0..n_colls {
        let name = r.str()?;
        let elem_type = TypeId::from_index(r.u32()? as usize);
        let kind = match r.u8()? {
            0 => CollectionKind::UserSet,
            1 => CollectionKind::Extent,
            t => return Err(DecodeError::BadTag(t)),
        };
        let cardinality = r.u64()?;
        let obj_bytes = r.u32()?;
        catalog.add_collection(CollectionDef {
            name,
            elem_type,
            kind,
            cardinality,
            obj_bytes,
        });
    }

    let n_idxs = r.count(22)?;
    for _ in 0..n_idxs {
        let name = r.str()?;
        let collection = CollectionId::from_index(r.u32()? as usize);
        let path_len = r.count(4)?;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(FieldId::from_index(r.u32()? as usize));
        }
        let key = FieldId::from_index(r.u32()? as usize);
        let distinct_keys = r.u64()?;
        let clustered = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(DecodeError::BadTag(t)),
        };
        catalog.add_index(IndexDef {
            name,
            collection,
            path,
            key,
            distinct_keys,
            clustered,
        });
    }

    let n_domains = r.count(8)?;
    for _ in 0..n_domains {
        let f = FieldId::from_index(r.u32()? as usize);
        catalog.set_ref_domain(f, CollectionId::from_index(r.u32()? as usize));
    }

    let n_fanouts = r.count(12)?;
    for _ in 0..n_fanouts {
        let f = FieldId::from_index(r.u32()? as usize);
        let v = r.f64()?;
        catalog.set_fanout(f, v);
    }

    let n_hists = r.count(28)?;
    for _ in 0..n_hists {
        let coll = CollectionId::from_index(r.u32()? as usize);
        let path_len = r.count(4)?;
        let mut path = Vec::with_capacity(path_len);
        for _ in 0..path_len {
            path.push(FieldId::from_index(r.u32()? as usize));
        }
        let key = FieldId::from_index(r.u32()? as usize);
        let n_bounds = r.count(1)?;
        let mut bounds = Vec::with_capacity(n_bounds);
        for _ in 0..n_bounds {
            bounds.push(r.value()?);
        }
        let total = r.u64()?;
        let distinct = r.u64()?;
        let h = Histogram::from_parts(bounds, total, distinct).ok_or(DecodeError::BadHistogram)?;
        catalog.set_histogram(coll, path, key, h);
    }

    catalog.raise_stats_epoch_to(epoch);
    Ok(catalog)
}

// ---- record codec ---------------------------------------------------------

impl WalRecord {
    /// Encodes the record to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the record's canonical byte form to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Genesis { schema, catalog } => {
                out.push(TAG_GENESIS);
                encode_schema(schema, out);
                encode_catalog(catalog, out);
            }
            WalRecord::InsertColumns {
                ty,
                obj_bytes,
                population,
                columns,
            } => {
                out.push(TAG_INSERT_COLUMNS);
                out.extend_from_slice(&(ty.index() as u32).to_le_bytes());
                out.extend_from_slice(&obj_bytes.to_le_bytes());
                out.extend_from_slice(&population.to_le_bytes());
                out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                for column in columns {
                    out.extend_from_slice(&(column.len() as u32).to_le_bytes());
                    for v in column.iter() {
                        encode_value(v, out);
                    }
                }
            }
            WalRecord::SetMembers { coll, oids } => {
                out.push(TAG_SET_MEMBERS);
                out.extend_from_slice(&(coll.index() as u32).to_le_bytes());
                out.extend_from_slice(&(oids.len() as u64).to_le_bytes());
                for o in oids {
                    out.extend_from_slice(&o.as_u64().to_le_bytes());
                }
            }
            WalRecord::SetCatalog { catalog } => {
                out.push(TAG_SET_CATALOG);
                encode_catalog(catalog, out);
            }
            WalRecord::BuildIndexes { bump_epoch } => {
                out.push(TAG_BUILD_INDEXES);
                out.push(*bump_epoch as u8);
            }
            WalRecord::StatsRefresh { buckets } => {
                out.push(TAG_STATS_REFRESH);
                out.extend_from_slice(&buckets.to_le_bytes());
            }
        }
    }

    /// Decodes a record from its byte form. Total: arbitrary input yields
    /// a typed error, never a panic, and trailing bytes are rejected.
    pub fn decode(buf: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(buf);
        let rec = match r.u8()? {
            TAG_GENESIS => {
                let schema = decode_schema(&mut r)?;
                let catalog = decode_catalog(&mut r)?;
                WalRecord::Genesis { schema, catalog }
            }
            TAG_INSERT_COLUMNS => {
                let ty = TypeId::from_index(r.u32()? as usize);
                let obj_bytes = r.u32()?;
                let population = r.u32()?;
                // A column is at least its length word, a value its tag.
                let n_columns = r.count(4)?;
                let mut columns = Vec::with_capacity(n_columns);
                for _ in 0..n_columns {
                    let n_values = r.count(1)?;
                    let mut column = Vec::with_capacity(n_values);
                    for _ in 0..n_values {
                        column.push(r.value()?);
                    }
                    columns.push(Arc::new(column));
                }
                WalRecord::InsertColumns {
                    ty,
                    obj_bytes,
                    population,
                    columns,
                }
            }
            TAG_SET_MEMBERS => {
                let coll = CollectionId::from_index(r.u32()? as usize);
                let n = r.u64()?;
                if n.saturating_mul(8) > r.remaining() as u64 {
                    return Err(DecodeError::BadLength);
                }
                let mut oids = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    oids.push(Oid::from_u64(r.u64()?));
                }
                WalRecord::SetMembers { coll, oids }
            }
            TAG_SET_CATALOG => WalRecord::SetCatalog {
                catalog: decode_catalog(&mut r)?,
            },
            TAG_BUILD_INDEXES => WalRecord::BuildIndexes {
                bump_epoch: match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(DecodeError::BadTag(t)),
                },
            },
            TAG_STATS_REFRESH => WalRecord::StatsRefresh { buckets: r.u32()? },
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(rec)
    }

    /// Short kind name for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Genesis { .. } => "genesis",
            WalRecord::InsertColumns { .. } => "insert-columns",
            WalRecord::SetMembers { .. } => "set-members",
            WalRecord::SetCatalog { .. } => "set-catalog",
            WalRecord::BuildIndexes { .. } => "build-indexes",
            WalRecord::StatsRefresh { .. } => "stats-refresh",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::paper::paper_model;
    use oodb_storage::datagen::columns;

    fn insert(population: u32, columns: Vec<Vec<Value>>) -> WalRecord {
        WalRecord::InsertColumns {
            ty: paper_model().ids.job,
            obj_bytes: 50,
            population,
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        let m = paper_model();
        let jobs = columns(40, |i| {
            [Value::str(&format!("job-{i}")), Value::Int(i as i64)]
        });
        let mut ragged = jobs.clone();
        ragged[1].truncate(7);
        vec![
            WalRecord::Genesis {
                schema: m.schema.clone(),
                catalog: m.catalog.clone(),
            },
            insert(40, jobs),
            // Shapes the codec carries and `apply_to` judges: columns of
            // unequal length, nothing inserted, a type without fields.
            insert(40, ragged),
            insert(0, vec![Vec::new(), Vec::new()]),
            insert(3, Vec::new()),
            WalRecord::SetMembers {
                coll: m.ids.job_extent,
                oids: (0..40).map(|i| Oid::new(m.ids.job, i)).collect(),
            },
            WalRecord::SetCatalog {
                catalog: m.catalog.clone(),
            },
            WalRecord::BuildIndexes { bump_epoch: true },
            WalRecord::BuildIndexes { bump_epoch: false },
            WalRecord::StatsRefresh { buckets: 32 },
        ]
    }

    #[test]
    fn canonical_roundtrip() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back.encode(), bytes, "{} not canonical", rec.kind());
        }
    }

    #[test]
    fn histogram_catalog_roundtrips() {
        let m = paper_model();
        let mut cat = m.catalog.clone();
        let h = Histogram::build((0..500).map(Value::Int).collect(), 16).unwrap();
        cat.set_histogram(m.ids.cities, vec![m.ids.city_mayor], m.ids.person_name, h);
        cat.set_fanout(m.ids.task_team_members, 12.5);
        cat.bump_stats_epoch();
        let rec = WalRecord::SetCatalog { catalog: cat };
        let bytes = rec.encode();
        let back = WalRecord::decode(&bytes).unwrap();
        let WalRecord::SetCatalog { catalog } = &back else {
            panic!("wrong variant");
        };
        assert!(catalog
            .histogram(m.ids.cities, &[m.ids.city_mayor], m.ids.person_name)
            .is_some());
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_never_panics() {
        for rec in sample_records() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WalRecord::decode(&bytes[..cut]).is_err(),
                    "{} prefix of {cut} bytes decoded",
                    rec.kind()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WalRecord::StatsRefresh { buckets: 8 }.encode();
        bytes.push(0);
        assert_eq!(
            WalRecord::decode(&bytes).unwrap_err(),
            DecodeError::TrailingBytes
        );
    }

    /// Ids the decoder reads with no schema in hand (a referent domain's
    /// or fan-out's field, an extent's type) are map keys, never table
    /// sizes: ids at the top of the `u32` range decode to the catalog they
    /// encode, without a panic or an allocation sized by the id.
    #[test]
    fn hostile_ids_decode_without_tables_sized_by_them() {
        let m = paper_model();
        let top = FieldId::from_index(u32::MAX as usize);
        let near_top = TypeId::from_index(u32::MAX as usize - 1);
        let mut cat = m.catalog.clone();
        let coll = cat.add_collection(CollectionDef {
            name: "extent(hostile)".into(),
            elem_type: near_top,
            kind: CollectionKind::Extent,
            cardinality: 1,
            obj_bytes: 1,
        });
        cat.set_ref_domain(top, coll);
        cat.set_fanout(top, 3.5);
        for rec in [
            WalRecord::SetCatalog {
                catalog: cat.clone(),
            },
            WalRecord::Genesis {
                schema: m.schema.clone(),
                catalog: cat.clone(),
            },
        ] {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap_or_else(|e| panic!("{e}"));
            let (WalRecord::SetCatalog { catalog } | WalRecord::Genesis { catalog, .. }) = &back
            else {
                panic!("wrong variant");
            };
            assert_eq!(catalog.ref_domain(top), Some(coll));
            assert_eq!(catalog.fanout(top), 3.5);
            assert_eq!(catalog.extent_of(near_top), Some(coll));
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // SetMembers claiming u64::MAX members over a 4-byte body.
        let mut bytes = vec![TAG_SET_MEMBERS];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            WalRecord::decode(&bytes).unwrap_err(),
            DecodeError::BadLength
        );
        // An insert claiming u32::MAX columns, then one claiming a column
        // of u32::MAX values, each over a few bytes of body.
        let mut header = vec![TAG_INSERT_COLUMNS];
        header.extend_from_slice(&[0; 12]);
        for counts in [&[u32::MAX][..], &[1, u32::MAX]] {
            let mut bytes = header.clone();
            for n in counts {
                bytes.extend_from_slice(&n.to_le_bytes());
            }
            bytes.extend_from_slice(&[0; 16]);
            assert_eq!(
                WalRecord::decode(&bytes).unwrap_err(),
                DecodeError::BadLength
            );
        }
    }
}
