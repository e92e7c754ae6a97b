//! The Open OODB optimizer model: property derivation, selectivity, and
//! the helpers shared by rules.

use crate::config::OptimizerConfig;
use crate::cost::{Cost, CostParams};
use oodb_algebra::{
    CmpOp, LogicalOp, LogicalProps, Operand, PhysProps, PhysicalOp, Pred, PredId, QueryEnv, VarId,
    VarOrigin, VarSet,
};
use oodb_object::fx::FxBuild;
use oodb_object::{CollectionId, FieldId, IndexId};
use std::cell::RefCell;
use std::collections::HashMap;
use volcano::OptModel;

/// What the rules ask about a predicate, over and over, for as long as a
/// search runs — once per rule check or candidate, not once per predicate.
#[derive(Clone, Copy)]
struct PredFacts {
    /// All variables mentioned.
    vars: VarSet,
    /// Variables whose object state is read (reference-valued ones dropped).
    mem_vars: VarSet,
    selectivity: f64,
}

/// How a transformation rule derives a predicate, from what: the key of
/// [`OodbModel::derived_pred`]'s cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Derivation {
    /// Conjunct `i` of a predicate, alone.
    Conjunct(PredId, usize),
    /// A predicate without its conjunct `i`.
    WithoutConjunct(PredId, usize),
    /// A join predicate conjoined with a selection's predicate.
    Merged(PredId, PredId),
    /// The reference equality that joins a `Mat`'s output to its source.
    MatJoin(VarId),
}

/// The model handed to the Volcano framework: query environment + cost
/// parameters + configuration.
pub struct OodbModel<'e> {
    /// The query's shared context.
    pub env: &'e QueryEnv,
    /// Device/CPU constants.
    pub params: CostParams,
    /// Optimizer configuration (disabled rules, assembly window).
    pub config: OptimizerConfig,
    /// Observed-selectivity overrides from the execution feedback loop.
    /// `None` (the default) keeps costing catalog-only with zero
    /// overhead — no predicate keys are ever rendered.
    overlay: Option<std::sync::Arc<oodb_algebra::StatsOverlay>>,
    /// [`PredFacts`] by `PredId` index, filled on first use: rules intern
    /// new predicates mid-search, so the table cannot be built up front.
    /// Valid for this model's environment, configuration and overlay
    /// only, and gone with the model.
    facts: RefCell<Vec<Option<PredFacts>>>,
    /// Predicates the rules derived, by [`Derivation`]: a rule that fires
    /// again finds its predicate here rather than rebuilding and
    /// re-interning it. Valid for this model's environment only.
    derived: RefCell<HashMap<Derivation, PredId, FxBuild>>,
}

impl<'e> OodbModel<'e> {
    /// Creates a model with the given configuration.
    pub fn new(env: &'e QueryEnv, params: CostParams, config: OptimizerConfig) -> Self {
        OodbModel {
            env,
            params,
            config,
            overlay: None,
            facts: RefCell::default(),
            derived: RefCell::default(),
        }
    }

    /// Attaches an observed-selectivity overlay: predicates whose
    /// canonical key ([`oodb_algebra::overlay::pred_key`]) carries an
    /// override are estimated from the observed fraction instead of
    /// catalog statistics. The catalog itself is never touched.
    pub fn with_overlay(mut self, overlay: std::sync::Arc<oodb_algebra::StatsOverlay>) -> Self {
        self.overlay = if overlay.is_empty() {
            None
        } else {
            Some(overlay)
        };
        // Selectivities already worked out predate the overlay.
        self.facts.get_mut().clear();
        self
    }

    /// The overlay override for a predicate, if one is attached and
    /// matches. Key rendering is only paid when an overlay is present.
    fn overlay_sel(&self, pred: PredId) -> Option<f64> {
        let ov = self.overlay.as_ref()?;
        ov.get(&oodb_algebra::overlay::pred_key(
            self.env,
            self.env.preds.pred(pred),
        ))
    }

    /// The attached overlay, if any (for EXPLAIN rendering).
    pub fn overlay(&self) -> Option<&oodb_algebra::StatsOverlay> {
        self.overlay.as_deref()
    }

    // ----- variable helpers -------------------------------------------------

    /// Drops reference-valued variables (Unnest outputs): their value
    /// travels inside tuples, so they never participate in the
    /// presence-in-memory property.
    pub fn objify(&self, vars: VarSet) -> VarSet {
        VarSet::from_iter(vars.iter().filter(|&v| !self.env.scopes.var(v).is_ref()))
    }

    fn pred_facts(&self, pred: PredId) -> PredFacts {
        if let Some(Some(known)) = self.facts.borrow().get(pred.index()) {
            return *known;
        }
        let terms = &self.env.preds.pred(pred).terms;
        let operands = || terms.iter().flat_map(|t| [&t.left, &t.right]);
        let facts = PredFacts {
            vars: VarSet::from_iter(operands().filter_map(Operand::var)),
            mem_vars: self.objify(VarSet::from_iter(operands().filter_map(Operand::mem_var))),
            // Observed beats modeled: an overlay entry covers the whole
            // conjunction; otherwise the terms are taken as independent.
            selectivity: self
                .overlay_sel(pred)
                .unwrap_or_else(|| self.catalog_selectivity(pred)),
        };
        let mut table = self.facts.borrow_mut();
        if table.len() <= pred.index() {
            table.resize(pred.index() + 1, None);
        }
        table[pred.index()] = Some(facts);
        facts
    }

    /// The predicate `how` names, interned from `build()` the first time
    /// it is asked for. The arena returns one id per structure, so caching
    /// the id changes no id, only how often the predicate is rebuilt.
    pub(crate) fn derived_pred(&self, how: Derivation, build: impl FnOnce() -> Pred) -> PredId {
        if let Some(&id) = self.derived.borrow().get(&how) {
            return id;
        }
        let id = self.env.preds.intern(build());
        self.derived.borrow_mut().insert(how, id);
        id
    }

    /// Variables whose object state a predicate reads, as a set.
    pub fn pred_mem_vars(&self, pred: PredId) -> VarSet {
        self.pred_facts(pred).mem_vars
    }

    /// All variables a predicate mentions, as a set.
    pub fn pred_vars(&self, pred: PredId) -> VarSet {
        self.pred_facts(pred).vars
    }

    /// Variables whose object state a projection list reads.
    pub fn items_mem_vars(&self, items: &[Operand]) -> VarSet {
        self.objify(VarSet::from_iter(items.iter().filter_map(Operand::mem_var)))
    }

    /// The collection that bounds the population a variable ranges over
    /// (delegates to [`QueryEnv::var_domain`]). `None` for components whose
    /// population is unknown to the catalog (the paper's `Plant`).
    pub fn var_domain(&self, v: VarId) -> Option<CollectionId> {
        self.env.var_domain(v)
    }

    /// Cardinality of a variable's domain, if known. "Cardinality
    /// information is kept only with extents and set instances" — so a
    /// `Plant` component yields `None` and assembly cannot bound its
    /// faults.
    pub fn var_domain_card(&self, v: VarId) -> Option<f64> {
        self.var_domain(v)
            .map(|c| self.env.catalog.collection(c).cardinality as f64)
    }

    /// Average object size for a variable, from its domain collection
    /// (fallback 256 bytes when unknown).
    pub fn var_obj_bytes(&self, v: VarId) -> f64 {
        self.var_domain(v)
            .map(|c| self.env.catalog.collection(c).obj_bytes as f64)
            .unwrap_or(256.0)
    }

    /// Reconstructs the single-valued reference path from a variable's
    /// base `Get` to `v` itself: returns `(base collection, base var,
    /// link fields)`. `None` when the chain passes through an `Unnest`
    /// (set-valued paths are not covered by our path indexes).
    pub fn index_path_of(&self, v: VarId) -> Option<(CollectionId, VarId, Vec<FieldId>)> {
        let mut links = Vec::new();
        let mut cur = v;
        loop {
            match self.env.scopes.var(cur).origin {
                VarOrigin::Get(coll) => {
                    links.reverse();
                    return Some((coll, cur, links));
                }
                VarOrigin::Mat {
                    src,
                    field: Some(f),
                } => {
                    links.push(f);
                    cur = src;
                }
                VarOrigin::Mat { field: None, .. } | VarOrigin::Unnest { .. } => return None,
            }
        }
    }

    /// What the input of the `Mat` binding `out` must hold in memory, given
    /// what is required of its output: the rest of the requirement, plus
    /// `out`'s source when `out` is read from a reference field of it (a
    /// dereference of an unnested reference value needs no object). `None`
    /// when `out` is not bound by a `Mat`.
    pub(crate) fn mat_input(&self, out: VarId, required: VarSet) -> Option<VarSet> {
        let VarOrigin::Mat { src, field } = self.env.scopes.var(out).origin else {
            return None;
        };
        let rest = required.remove(out);
        Some(if field.is_some() {
            rest.insert(src)
        } else {
            rest
        })
    }

    /// The set of variables on `v`'s materialization chain, including the
    /// base. Used to decide whether a collapse-to-index-scan may discard
    /// the rest of the scope.
    pub fn chain_vars(&self, v: VarId) -> VarSet {
        let mut set = VarSet::single(v);
        let mut cur = v;
        while let VarOrigin::Mat { src, .. } | VarOrigin::Unnest { src, .. } =
            self.env.scopes.var(cur).origin
        {
            set = set.insert(src);
            cur = src;
        }
        set
    }

    // ----- selectivity ------------------------------------------------------

    /// Selectivity of one comparison term. Index statistics are consulted
    /// when an index covers the attribute's full path; otherwise the
    /// paper's naïve default applies: "selectivity of selection predicates
    /// is assumed to be 10%".
    fn term_selectivity(&self, term: &oodb_algebra::Term) -> f64 {
        // Identity (reference) equality inside a join predicate is handled
        // by join cardinality; standalone it behaves like a key lookup.
        if let Some((_, target)) = term.as_ref_eq() {
            return 1.0 / self.var_domain_card(target).unwrap_or(10.0).max(1.0);
        }
        let (attr_side, other) = match (&term.left, &term.right) {
            (Operand::Attr { var, field }, o) | (o, Operand::Attr { var, field }) => {
                ((*var, *field), o)
            }
            _ => return 0.1,
        };
        if !matches!(other, Operand::Const(_)) {
            return 0.1;
        }
        let path = self.index_path_of(attr_side.0);
        // Collected histograms (our statistics-refinement extension) take
        // precedence over index distinct counts.
        if let (Some((coll, _, links)), Operand::Const(v)) = (&path, other) {
            if let Some(h) = self.env.catalog.histogram(*coll, links, attr_side.1) {
                let eq = h.selectivity_eq(v);
                let le = h.fraction_le(v);
                return match term.op {
                    CmpOp::Eq => eq,
                    CmpOp::Ne => 1.0 - eq,
                    CmpOp::Le => le,
                    CmpOp::Lt => (le - eq).max(0.0),
                    CmpOp::Gt => 1.0 - le,
                    CmpOp::Ge => (1.0 - le + eq).min(1.0),
                }
                .clamp(1e-9, 1.0);
            }
        }
        let distinct = path.and_then(|(coll, _, links)| {
            let idx = self.env.catalog.find_index(coll, &links, attr_side.1);
            idx.map(|(_, idx)| idx.distinct_keys as f64)
        });
        match (term.op, distinct) {
            (CmpOp::Eq, Some(d)) => 1.0 / d.max(1.0),
            (CmpOp::Eq, None) => 0.1,
            (CmpOp::Ne, Some(d)) => 1.0 - 1.0 / d.max(1.0),
            (CmpOp::Ne, None) => 0.9,
            // Range comparisons: one third, with or without statistics
            // (no histograms in the 1993 prototype).
            _ => 1.0 / 3.0,
        }
    }

    /// Selectivity of a conjunction (product of independent terms), unless
    /// the feedback overlay carries an observed fraction for the whole
    /// conjunction — observed beats modeled.
    pub fn selectivity(&self, pred: PredId) -> f64 {
        self.pred_facts(pred).selectivity
    }

    /// Selectivity from the catalog alone, whatever the overlay says.
    pub fn catalog_selectivity(&self, pred: PredId) -> f64 {
        let terms = self.env.preds.pred(pred).terms.iter();
        terms.map(|t| self.term_selectivity(t)).product()
    }

    /// Output cardinality of a join: reference equi-joins produce one
    /// match per reference scaled by the fraction of the target domain
    /// present on the target side; value joins use a conservative
    /// 1/max-input estimate.
    pub fn join_card(&self, pred: PredId, l: &LogicalProps, r: &LogicalProps) -> f64 {
        let p = self.env.preds.pred(pred);
        // Feedback override: observed selectivity relative to the cross
        // product of the inputs. It was observed over some plan's inputs,
        // not these, so a reference equality keeps its bound: at most one
        // match per referencing tuple.
        if let Some(s) = self.overlay_sel(pred) {
            let card = l.card * r.card * s;
            let refs = match p.terms.first().and_then(|t| t.as_ref_eq()) {
                Some((_, target)) if l.vars.contains(target) => r.card,
                Some(_) => l.card,
                None => card,
            };
            return card.min(refs).max(1e-6);
        }
        let mut card = None;
        let mut extra = 1.0;
        for t in &p.terms {
            if card.is_none() {
                if let Some((_, target)) = t.as_ref_eq() {
                    let (t_side, ref_side) = if l.vars.contains(target) {
                        (l, r)
                    } else {
                        (r, l)
                    };
                    let domain = self.var_domain_card(target).unwrap_or(t_side.card);
                    card = Some(ref_side.card * (t_side.card / domain.max(1.0)));
                    continue;
                }
            }
            extra *= match card {
                None => {
                    // First term, value-based equi-join.
                    card = Some(l.card * r.card / l.card.max(r.card).max(1.0));
                    1.0
                }
                Some(_) => self.term_selectivity(t),
            };
        }
        (card.unwrap_or(l.card * r.card) * extra).max(1e-6)
    }

    /// Estimated matches for an index lookup with the given predicate.
    pub fn index_matches(&self, coll: CollectionId, distinct: u64) -> f64 {
        self.env.catalog.collection(coll).cardinality as f64 / distinct.max(1) as f64
    }

    /// Assembly fault estimate for materializing `v` from `input_card`
    /// source tuples: bounded by the domain cardinality when known,
    /// unbounded (one fault per source tuple) otherwise — the paper's
    /// 50,000-fault Plant anecdote.
    pub fn assembly_faults(&self, v: VarId, input_card: f64) -> f64 {
        match self.var_domain_card(v) {
            Some(domain) => input_card.min(domain),
            None => input_card,
        }
    }
}

impl<'e> OodbModel<'e> {
    /// An algorithm's output properties: those of the logical operator it
    /// implements ([`OptModel::derive_props`]). Only Index Scan, a
    /// collapsed Select∘Mat∘Get chain, is sized from index statistics
    /// instead, and Sort is the identity.
    pub fn phys_props(&self, op: &PhysicalOp, inputs: &[&LogicalProps]) -> LogicalProps {
        let derive = |op: LogicalOp, inputs: &[&LogicalProps]| self.derive_props(&op, inputs);
        match op {
            PhysicalOp::FileScan { coll, var } => derive(
                LogicalOp::Get {
                    coll: *coll,
                    var: *var,
                },
                &[],
            ),
            PhysicalOp::IndexScan { index, var, pred } => {
                let coll = self.env.catalog.index(*index).collection;
                LogicalProps {
                    vars: VarSet::single(*var),
                    card: self.index_scan_matches(*index, *pred),
                    bytes: self.env.catalog.collection(coll).obj_bytes as f64,
                }
            }
            PhysicalOp::Filter { pred } => derive(LogicalOp::Select { pred: *pred }, inputs),
            PhysicalOp::HybridHashJoin { pred } | PhysicalOp::MergeJoin { pred } => {
                derive(LogicalOp::Join { pred: *pred }, inputs)
            }
            PhysicalOp::PointerJoin { pred } => {
                let (var, coll) = self.pointer_join_target(*pred);
                let target = derive(LogicalOp::Get { coll, var }, &[]);
                derive(LogicalOp::Join { pred: *pred }, &[inputs[0], &target])
            }
            PhysicalOp::Assembly { targets, .. } => targets
                .iter()
                .fold(*inputs[0], |i, &out| derive(LogicalOp::Mat { out }, &[&i])),
            PhysicalOp::WarmAssembly { target } => derive(LogicalOp::Mat { out: *target }, inputs),
            PhysicalOp::AlgUnnest { out } => derive(LogicalOp::Unnest { out: *out }, inputs),
            PhysicalOp::AlgProject { items } => derive(
                LogicalOp::Project {
                    items: items.clone(),
                },
                inputs,
            ),
            PhysicalOp::Sort { .. } => *inputs[0],
            PhysicalOp::HashSetOp { kind } => derive(LogicalOp::SetOp { kind: *kind }, inputs),
        }
    }

    /// Rows an index scan returns. An empty predicate means a full ordered
    /// index scan (the sort-order extension); an equality uses
    /// distinct-key statistics; range predicates use estimated selectivity
    /// over a B-tree range sweep.
    fn index_scan_matches(&self, index: IndexId, pred: PredId) -> f64 {
        let idx = self.env.catalog.index(index);
        let card = self.env.catalog.collection(idx.collection).cardinality as f64;
        match self.env.preds.pred(pred).terms.first() {
            None => card,
            // An overlay override beats distinct-key statistics: the
            // distinct-key path is exactly where a skewed key makes the
            // uniform 1/d estimate fiction.
            Some(t) if t.op == CmpOp::Eq => match self.overlay_sel(pred) {
                Some(s) => (card * s).max(1.0),
                None => self.index_matches(idx.collection, idx.distinct_keys),
            },
            Some(_) => (card * self.selectivity(pred)).max(1.0),
        }
    }

    /// The variable a pointer join binds and the collection it is drawn
    /// from.
    fn pointer_join_target(&self, pred: PredId) -> (VarId, CollectionId) {
        let target = self
            .env
            .preds
            .pred(pred)
            .terms
            .first()
            .and_then(|t| t.as_ref_eq())
            .map(|(_, t)| t)
            .expect("pointer join needs a reference equality");
        let domain = self
            .var_domain(target)
            .expect("pointer join needs a domain");
        (target, domain)
    }
}

impl<'e> OptModel for OodbModel<'e> {
    type LOp = LogicalOp;
    type POp = PhysicalOp;
    type LProps = LogicalProps;
    type PProps = PhysProps;
    type Cost = Cost;

    fn derive_props(&self, op: &LogicalOp, inputs: &[&LogicalProps]) -> LogicalProps {
        match op {
            LogicalOp::Get { coll, var } => {
                let c = self.env.catalog.collection(*coll);
                LogicalProps {
                    vars: VarSet::single(*var),
                    card: c.cardinality as f64,
                    bytes: c.obj_bytes as f64,
                }
            }
            LogicalOp::Select { pred } => LogicalProps {
                vars: inputs[0].vars,
                card: (inputs[0].card * self.selectivity(*pred)).max(1e-6),
                bytes: inputs[0].bytes,
            },
            LogicalOp::Project { items } => LogicalProps {
                vars: VarSet::from_iter(items.iter().filter_map(Operand::var)),
                card: inputs[0].card,
                bytes: 16.0 * items.len() as f64,
            },
            LogicalOp::Join { pred } => LogicalProps {
                vars: inputs[0].vars.union(inputs[1].vars),
                card: self.join_card(*pred, inputs[0], inputs[1]),
                bytes: inputs[0].bytes + inputs[1].bytes,
            },
            LogicalOp::Mat { out } => LogicalProps {
                vars: inputs[0].vars.insert(*out),
                card: inputs[0].card,
                bytes: inputs[0].bytes + self.var_obj_bytes(*out),
            },
            LogicalOp::Unnest { out } => {
                let fanout = match self.env.scopes.var(*out).origin {
                    VarOrigin::Unnest { field, .. } => self.env.catalog.fanout(field),
                    _ => 1.0,
                };
                LogicalProps {
                    vars: inputs[0].vars.insert(*out),
                    card: inputs[0].card * fanout,
                    bytes: inputs[0].bytes + 8.0,
                }
            }
            LogicalOp::SetOp { kind } => {
                let (l, r) = (inputs[0], inputs[1]);
                let card = match kind {
                    oodb_algebra::SetOpKind::Union => l.card + r.card,
                    oodb_algebra::SetOpKind::Intersect => l.card.min(r.card) * 0.5,
                    oodb_algebra::SetOpKind::Difference => l.card * 0.5,
                };
                LogicalProps {
                    vars: l.vars,
                    card: card.max(1e-6),
                    bytes: l.bytes,
                }
            }
        }
    }

    /// An algorithm's local cost, given its inputs' properties: the one
    /// place each algorithm is priced, for the search engine and plan
    /// annotation alike.
    fn cost(&self, op: &PhysicalOp, inputs: &[&LogicalProps]) -> Cost {
        let p = &self.params;
        match op {
            PhysicalOp::FileScan { coll, .. } => {
                let c = self.env.catalog.collection(*coll);
                let pages = p.pages(c.cardinality as f64, c.obj_bytes as f64);
                Cost::new(p.seq_scan(pages), c.cardinality as f64 * p.cpu_tuple_s)
            }
            PhysicalOp::IndexScan { index, pred, .. } => {
                let c = self
                    .env
                    .catalog
                    .collection(self.env.catalog.index(*index).collection);
                let matches = self.index_scan_matches(*index, *pred);
                let coll_pages = p.pages(c.cardinality as f64, c.obj_bytes as f64);
                let io = p.index_lookup_io(c.cardinality as f64, matches)
                    + p.index_fetch_io(matches, coll_pages);
                Cost::new(io, matches * p.cpu_tuple_s)
            }
            PhysicalOp::Filter { .. } => Cost::cpu(inputs[0].card * p.cpu_pred_s),
            PhysicalOp::HybridHashJoin { .. } => {
                let (l, r) = (inputs[0], inputs[1]);
                p.hash_join(l.card, l.bytes, r.card, r.bytes)
            }
            PhysicalOp::PointerJoin { pred } => {
                let (_, domain) = self.pointer_join_target(*pred);
                let refs = inputs[0].card;
                // Per-object fault charging, like assembly: the 1993 cost
                // model has no page-level dedup statistics, so a pointer
                // join earns the elevator discount but not a page cap.
                let distinct = refs.min(self.env.catalog.collection(domain).cardinality as f64);
                Cost::new(
                    distinct * p.rand_s * p.elevator_factor,
                    refs * p.cpu_deref_s,
                )
            }
            PhysicalOp::Assembly { targets, window } => {
                let card = inputs[0].card;
                targets.iter().fold(Cost::ZERO, |cost, &v| {
                    let faults = self.assembly_faults(v, card);
                    cost + Cost::new(p.assembly_io(faults, *window), card * p.cpu_deref_s)
                })
            }
            PhysicalOp::WarmAssembly { target } => {
                let domain = self
                    .var_domain(*target)
                    .expect("warm assembly needs a known domain");
                let dc = self.env.catalog.collection(domain);
                let pages = p.pages(dc.cardinality as f64, dc.obj_bytes as f64);
                Cost::new(
                    p.seq_scan(pages),
                    inputs[0].card * p.cpu_deref_s + dc.cardinality as f64 * p.cpu_tuple_s,
                )
            }
            PhysicalOp::AlgUnnest { out } => {
                let unnested = self.derive_props(&LogicalOp::Unnest { out: *out }, &[inputs[0]]);
                Cost::cpu(unnested.card * p.cpu_tuple_s)
            }
            PhysicalOp::AlgProject { .. } => Cost::cpu(inputs[0].card * p.cpu_tuple_s),
            // One synchronized pass over both (sorted) inputs.
            PhysicalOp::MergeJoin { .. } => {
                Cost::cpu((inputs[0].card + inputs[1].card) * p.cpu_tuple_s)
            }
            PhysicalOp::Sort { .. } => {
                let card = inputs[0].card.max(1.0);
                Cost::cpu(card * card.log2().max(1.0) * p.cpu_tuple_s)
            }
            PhysicalOp::HashSetOp { .. } => {
                Cost::cpu((inputs[0].card + inputs[1].card) * p.cpu_hash_s)
            }
        }
    }

    fn satisfies(&self, required: &PhysProps, delivered: &PhysProps) -> bool {
        required.satisfied_by(*delivered)
    }

    /// The rule graph's vocabulary: [`LogicalOp::tag`].
    fn tag(&self, op: &LogicalOp) -> &'static str {
        op.tag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use oodb_algebra::QueryBuilder;
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    fn fixture() -> (oodb_object::paper::PaperModel, QueryEnv, VarId, VarId) {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        (m, qb.into_env(), c, cm)
    }

    #[test]
    fn index_path_reconstruction() {
        let (m, env, c, cm) = fixture();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        let (coll, base, links) = model.index_path_of(cm).unwrap();
        assert_eq!(coll, m.ids.cities);
        assert_eq!(base, c);
        assert_eq!(links, vec![m.ids.city_mayor]);
        // Base var: empty path.
        let (_, _, links_c) = model.index_path_of(c).unwrap();
        assert!(links_c.is_empty());
    }

    #[test]
    fn indexed_selectivity_estimates_two_joes() {
        let (m, env, _, cm) = fixture();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        let pred = env.preds.cmp(
            Operand::Attr {
                var: cm,
                field: m.ids.person_name,
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Joe")),
        );
        // 10,000 cities / 5,000 distinct mayor names = 2.
        let sel = model.selectivity(pred);
        assert!((sel * 10_000.0 - 2.0).abs() < 1e-9, "sel={sel}");
    }

    #[test]
    fn unindexed_selectivity_defaults_to_ten_percent() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (dept, d) = qb.get(m.ids.department_extent, "d");
        let (_, dp) = qb.mat(dept, d, m.ids.dept_plant, "dp");
        let pred = qb.eq_const(dp, m.ids.plant_location, Value::str("Dallas"));
        let env = qb.into_env();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        assert!((model.selectivity(pred) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plant_has_unbounded_faults_but_dept_is_bounded() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (p1, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let (_, dp) = qb.mat(p1, d, m.ids.dept_plant, "dp");
        let env = qb.into_env();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        // Departments: bounded by the 1,000-object extent.
        assert_eq!(model.assembly_faults(d, 50_000.0), 1_000.0);
        // Plants: no extent → one fault per source tuple (the paper's
        // 50,000-page-fault estimate).
        assert_eq!(model.assembly_faults(dp, 50_000.0), 50_000.0);
    }

    #[test]
    fn mat_derives_scope_and_preserves_card() {
        let (_, env, c, cm) = fixture();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        let cities_coll = match env.scopes.var(c).origin {
            VarOrigin::Get(coll) => coll,
            _ => unreachable!(),
        };
        let get_props = model.derive_props(
            &LogicalOp::Get {
                coll: cities_coll,
                var: c,
            },
            &[],
        );
        assert_eq!(get_props.card, 10_000.0);
        let mat_props = model.derive_props(&LogicalOp::Mat { out: cm }, &[&get_props]);
        assert_eq!(mat_props.card, 10_000.0);
        assert!(mat_props.vars.contains(c) && mat_props.vars.contains(cm));
        assert!(mat_props.bytes > get_props.bytes);
    }

    #[test]
    fn ref_join_card_matches_ref_side() {
        // Mat→Join against the full extent: one match per reference.
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let env = qb.into_env();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        let l = LogicalProps {
            vars: VarSet::single(e),
            card: 50_000.0,
            bytes: 250.0,
        };
        let r = LogicalProps {
            vars: VarSet::single(d),
            card: 1_000.0,
            bytes: 400.0,
        };
        assert!((model.join_card(pred, &l, &r) - 50_000.0).abs() < 1e-6);
        // Filtered target side (1% of departments) scales matches down.
        let r_filtered = LogicalProps { card: 10.0, ..r };
        assert!((model.join_card(pred, &l, &r_filtered) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn unnest_multiplies_by_fanout() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (tasks, t) = qb.get(m.ids.tasks, "t");
        let (_, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
        let env = qb.into_env();
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::default());
        let in_props = LogicalProps {
            vars: VarSet::single(t),
            card: 2_000.0,
            bytes: 120.0,
        };
        let out = model.derive_props(&LogicalOp::Unnest { out: mm }, &[&in_props]);
        assert_eq!(out.card, 10_000.0, "2,000 tasks × 5 members");
    }
}
