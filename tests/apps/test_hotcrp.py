"""Case-study tests: HotCRP schema, generator, and the three disguises."""

import pytest

from repro import Disguiser, find_interactions, redundant_decorrelations, validate_spec
from repro.apps.hotcrp import (
    HotcrpPopulation,
    check_invariants,
    generate_hotcrp,
    hotcrp_confanon,
    hotcrp_gdpr,
    hotcrp_gdpr_plus,
    hotcrp_schema,
    schema_loc,
    scrub_assertions,
    user_activity,
    user_footprint,
)

PC_MEMBER = 3  # a PC member in the mini fixture (reviews, prefs, comments)


class TestSchema:
    def test_25_object_types(self):
        # Figure 4: HotCRP has 25 object types.
        assert hotcrp_schema().object_type_count() == 25

    def test_schema_validates(self):
        hotcrp_schema().validate()

    def test_contactinfo_referenced_widely(self):
        refs = hotcrp_schema().referencing("ContactInfo")
        referencing_tables = {t.name for t, _ in refs}
        assert {"PaperReview", "PaperConflict", "PaperComment", "ActionLog"} <= referencing_tables
        assert len(refs) >= 15  # many FKs -> tracing burden the paper describes

    def test_schema_loc_positive(self):
        assert schema_loc() > 100


class TestGenerator:
    def test_paper_population_at_scale_1(self):
        population = HotcrpPopulation.at_scale(1.0)
        assert population.users == 430
        assert population.pc_members == 30
        assert population.papers == 450
        assert population.reviews == 1400

    def test_generated_counts_match(self, mini_hotcrp):
        db, _ = mini_hotcrp
        assert db.count("ContactInfo") == 40
        assert db.count("Paper") == 30
        assert db.count("PaperReview") == 90

    def test_deterministic(self):
        a = generate_hotcrp(population=HotcrpPopulation(20, 4, 10, 30), seed=9)
        b = generate_hotcrp(population=HotcrpPopulation(20, 4, 10, 30), seed=9)
        assert sorted(map(str, a.table("PaperReview").rows())) == sorted(
            map(str, b.table("PaperReview").rows())
        )

    def test_integrity_and_invariants(self, mini_hotcrp):
        db, _ = mini_hotcrp
        assert db.check_integrity() == []
        assert check_invariants(db) == []

    def test_pc_members_flagged(self, mini_hotcrp):
        db, _ = mini_hotcrp
        assert db.count("ContactInfo", "roles = 1") == 6

    def test_activity_signal(self, mini_hotcrp):
        db, _ = mini_hotcrp
        activity = user_activity(db)
        assert len(activity) == 40
        assert all(t >= 0 for t in activity.values())


class TestSpecs:
    def test_specs_validate_against_schema(self):
        schema = hotcrp_schema()
        for spec in (hotcrp_gdpr(), hotcrp_gdpr_plus(), hotcrp_confanon()):
            validate_spec(spec, schema)  # hard errors raise

    def test_gdpr_plus_decorrelates_reviews(self):
        from repro.spec.transform import Decorrelate

        spec = hotcrp_gdpr_plus()
        review = spec.table_disguise("PaperReview")
        assert any(isinstance(t, Decorrelate) for t in review.transformations)

    def test_gdpr_removes_reviews(self):
        from repro.spec.transform import Remove

        spec = hotcrp_gdpr()
        review = spec.table_disguise("PaperReview")
        assert any(isinstance(t, Remove) for t in review.transformations)

    def test_confanon_is_global(self):
        assert not hotcrp_confanon().is_user_disguise
        assert hotcrp_gdpr().is_user_disguise
        assert hotcrp_gdpr_plus().is_user_disguise

    def test_confanon_conflicts_with_gdpr_plus(self):
        interactions = find_interactions(hotcrp_confanon(), hotcrp_gdpr_plus())
        assert interactions  # they touch the same data (§4.2)
        redundant = redundant_decorrelations(hotcrp_confanon(), hotcrp_gdpr_plus())
        assert {r.table for r in redundant} >= {"PaperReview", "PaperComment"}


class TestGdprPlus:
    def test_scrubbing_meets_its_goals(self, mini_hotcrp):
        db, engine = mini_hotcrp
        reviews_before = db.count("PaperReview")
        report = engine.apply(
            "HotCRP-GDPR+", uid=PC_MEMBER,
            assertions=scrub_assertions(), check_integrity=True,
        )
        # reviews retained, just decorrelated (§3)
        assert db.count("PaperReview") == reviews_before
        assert db.count("PaperReview", "contactId = $UID", {"UID": PC_MEMBER}) == 0
        assert report.rows_decorrelated > 0
        assert check_invariants(db) == []

    def test_review_text_preserved(self, mini_hotcrp):
        db, engine = mini_hotcrp
        texts_before = sorted(
            r["reviewText"] for r in db.select("PaperReview")
        )
        engine.apply("HotCRP-GDPR+", uid=PC_MEMBER)
        texts_after = sorted(r["reviewText"] for r in db.select("PaperReview"))
        assert texts_after == texts_before

    def test_each_review_gets_distinct_placeholder(self, mini_hotcrp):
        db, engine = mini_hotcrp
        my_reviews = [
            r["reviewId"]
            for r in db.select("PaperReview", "contactId = $UID", {"UID": PC_MEMBER})
        ]
        engine.apply("HotCRP-GDPR+", uid=PC_MEMBER)
        owners = [
            db.get("PaperReview", rid)["contactId"] for rid in my_reviews
        ]
        assert len(set(owners)) == len(owners)  # Figure 2: one per review
        for owner in owners:
            placeholder = db.get("ContactInfo", owner)
            assert placeholder["disabled"] is True
            assert placeholder["email"] is None

    def test_footprint_empty_after_scrub(self, mini_hotcrp):
        db, engine = mini_hotcrp
        engine.apply("HotCRP-GDPR+", uid=PC_MEMBER)
        footprint = user_footprint(db, PC_MEMBER)
        assert all(count == 0 for count in footprint.values()), footprint

    def test_reversal_restores_everything(self, mini_hotcrp):
        db, engine = mini_hotcrp
        before = {t: db.count(t) for t in db.table_names if not t.startswith("_")}
        footprint_before = user_footprint(db, PC_MEMBER)
        report = engine.apply("HotCRP-GDPR+", uid=PC_MEMBER)
        engine.reveal(report.disguise_id, check_integrity=True)
        assert {t: db.count(t) for t in db.table_names if not t.startswith("_")} == before
        assert user_footprint(db, PC_MEMBER) == footprint_before
        assert check_invariants(db) == []


class TestGdpr:
    def test_deletes_reviews_outright(self, mini_hotcrp):
        db, engine = mini_hotcrp
        mine = db.count("PaperReview", "contactId = $UID", {"UID": PC_MEMBER})
        assert mine > 0
        report = engine.apply("HotCRP-GDPR", uid=PC_MEMBER, check_integrity=True)
        assert db.count("PaperReview", "contactId = $UID", {"UID": PC_MEMBER}) == 0
        assert report.rows_decorrelated == 0
        assert report.rows_removed >= mine
        assert check_invariants(db) == []

    def test_reversible_round_trip(self, mini_hotcrp):
        db, engine = mini_hotcrp
        footprint_before = user_footprint(db, PC_MEMBER)
        report = engine.apply("HotCRP-GDPR", uid=PC_MEMBER)
        engine.reveal(report.disguise_id, check_integrity=True)
        assert user_footprint(db, PC_MEMBER) == footprint_before


class TestConfAnon:
    def test_anonymizes_all_users(self, mini_hotcrp):
        db, engine = mini_hotcrp
        engine.apply("HotCRP-ConfAnon", check_integrity=True)
        # every original user's name is scrubbed
        for contact in db.select("ContactInfo", "contactId <= 40"):
            assert contact["firstName"] == "[redacted]"
            assert contact["email"].endswith("@anon.invalid")
        # no review points at an original user
        assert db.count("PaperReview", "contactId <= 40") == 0
        assert check_invariants(db) == []

    def test_touches_far_more_than_gdpr_plus(self, mini_hotcrp):
        db, engine = mini_hotcrp
        anon = engine.apply("HotCRP-ConfAnon")
        db2, engine2 = generate_hotcrp(
            population=HotcrpPopulation(40, 6, 30, 90), seed=3
        ), None
        assert anon.rows_touched > 90  # > all reviews

    def test_reversal_with_accessible_vault(self, mini_hotcrp):
        db, engine = mini_hotcrp
        names_before = sorted(
            c["firstName"] for c in db.select("ContactInfo")
        )
        report = engine.apply("HotCRP-ConfAnon")
        reveal = engine.reveal(report.disguise_id, check_integrity=True)
        assert sorted(c["firstName"] for c in db.select("ContactInfo")) == names_before
        assert reveal.fks_restored > 0


class TestPlanCacheBound:
    def test_entries_scale_with_spec_predicates_not_users(self):
        """Per-user GDPR+ applies reuse one cached plan per spec predicate.

        Removal-set collection reads each user's keys through key-batch
        selects, so no per-user predicate enters the plan cache: its size
        is the same after 20 and after 100 users, far below its FIFO cap,
        and almost every lookup hits.
        """
        db = generate_hotcrp(seed=7)
        engine = Disguiser(db, seed=1)
        spec = hotcrp_gdpr_plus()
        engine.register(spec)
        uids = sorted(row["contactId"] for row in db.select("ContactInfo"))
        sizes = {}
        for n, uid in enumerate(uids[:100], start=1):
            engine.apply(spec.name, uid=uid)
            if n in (20, 100):
                plans = db.plans
                sizes[n] = len(plans)
                assert plans.hits >= 0.95 * (plans.hits + plans.misses), n
        assert sizes[20] == sizes[100] < 64 < db.plans.MAXSIZE
