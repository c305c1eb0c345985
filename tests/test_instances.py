import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from santaclaus.instances import (
    Allocation,
    Instance,
    InstanceFormatError,
    JobSpec,
    OracleBudgetError,
    exact_optimum,
    exact_optimum_with_witness,
    generate_random,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    verify_allocation,
)
from conftest import tiny_instance


# ---------------------------------------------------------------- parsing

def test_parse_minimal():
    inst = parse_instance('{"machines":1,"jobs":[{"size":3,"eligible":[0]}]}')
    assert inst.machine_count == 1
    assert inst.jobs == (JobSpec(size=3, eligible=frozenset({0})),)


def test_parse_symmetric_two_machine():
    text = '{"machines":2,"jobs":[{"size":4,"eligible":[0,1]},{"size":4,"eligible":[0,1]}]}'
    inst = parse_instance(text)
    assert inst.machine_count == 2
    assert all(job.size == 4 and job.eligible == frozenset({0, 1}) for job in inst.jobs)


def test_parse_rejects_zero_size():
    with pytest.raises(InstanceFormatError, match="size must be positive") as err:
        parse_instance('{"machines":1,"jobs":[{"size":0,"eligible":[0]}]}')
    assert "jobs[0].size" in str(err.value)


@pytest.mark.parametrize("size", [2.5, 3.0, Fraction(5, 2), True, 0, -1])
def test_jobspec_rejects_a_size_that_is_not_a_positive_int(size):
    # the T search assumes integer sizes: sizes 2.5 and 3 on one machine
    # would give T = 5 against an optimum of 5.5
    with pytest.raises(ValueError, match="size must be a positive integer"):
        JobSpec(size=size, eligible=frozenset({0}))


@pytest.mark.parametrize("eligible", [[0], {0}, (0,), range(1)])
def test_jobspec_rejects_an_eligible_that_is_not_a_frozenset(eligible):
    # a list slipped through, then broke hashing and the clustered branch's
    # set algebra (eligible & set(...))
    with pytest.raises(ValueError, match="eligible must be a frozenset"):
        JobSpec(size=1, eligible=eligible)


@pytest.mark.parametrize("count", [2.5, 1.0, Fraction(2), True, 0])
def test_instance_rejects_a_machine_count_that_is_not_a_positive_int(count):
    with pytest.raises(ValueError, match="machine_count must be a positive integer"):
        Instance(machine_count=count, jobs=())


@pytest.mark.parametrize("index", [0.5, 1.0, True, -1, 2])
def test_instance_rejects_a_machine_index_that_is_not_an_int_in_range(index):
    # a float index crashed the T search, and True counted as machine 1
    with pytest.raises(ValueError, match=r"jobs\[0\]: machine index not an int in range"):
        Instance(machine_count=2, jobs=(JobSpec(3, frozenset({index})), JobSpec(4, frozenset({0, 1}))))


def test_parse_rejects_out_of_range_machine():
    with pytest.raises(InstanceFormatError, match="machine index out of range") as err:
        parse_instance('{"machines":2,"jobs":[{"size":1,"eligible":[2]}]}')
    assert "jobs[0].eligible[0]" in str(err.value)


def test_parse_rejects_malformed_document():
    with pytest.raises(InstanceFormatError, match="malformed JSON"):
        parse_instance("{nope")
    with pytest.raises(InstanceFormatError, match="unknown field"):
        parse_instance('{"machines":1,"jobs":[],"extra":1}')


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"machines":2,"machines":3,"jobs":[]}', "machines"),
        ('{"machines":3,"jobs":[{"size":3,"size":5,"eligible":[0]}]}', "size"),
        ('{"machines":3,"jobs":[{"size":3,"eligible":[0],"eligible":[2]}]}', "eligible"),
    ],
)
def test_parse_rejects_duplicate_key(text, key):
    # json.loads would keep the last value, so the instance solved would not
    # be the one the file spells
    with pytest.raises(InstanceFormatError, match=f"duplicate key '{key}'"):
        parse_instance(text)


def test_parse_canonicalizes_duplicate_eligibility():
    inst = parse_instance('{"machines":2,"jobs":[{"size":3,"eligible":[1,0,1]}]}')
    assert inst.jobs[0].eligible == frozenset({0, 1})
    assert serialize_instance(inst) == '{"machines":2,"jobs":[{"size":3,"eligible":[0,1]}]}'


def test_zero_job_instance():
    inst = parse_instance('{"machines":2,"jobs":[]}')
    assert exact_optimum(inst) == 0
    from santaclaus.pipeline import solve

    report = solve(inst)
    assert report.T == 0 and report.allocation.owner == {}


def instances_strategy():
    def build(m, raw_jobs):
        jobs = tuple(
            JobSpec(size=s, eligible=frozenset(i for i in elig if i < m))
            for s, elig in raw_jobs
        )
        return Instance(machine_count=m, jobs=jobs)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),
                st.sets(st.integers(min_value=0, max_value=3), max_size=4),
            ),
            max_size=6,
        ),
    )


@settings(max_examples=60, derandomize=True)
@given(instances_strategy())
def test_serialize_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst
    # serialization is canonical: a second trip is byte-identical
    assert serialize_instance(parse_instance(serialize_instance(inst))) == serialize_instance(inst)


def test_allocation_round_trip():
    alloc = Allocation(owner={10: 1, 2: 0}, min_value=Fraction(7, 3))
    text = serialize_allocation(alloc)
    assert parse_allocation(text) == alloc
    # numeric key order, not lexicographic
    assert text.index('"2"') < text.index('"10"')


@pytest.mark.parametrize("key", ["03", "6_0", " 3", "+3", "-1", "x", "", "\u0663"])
def test_parse_allocation_rejects_non_canonical_job_key(key):
    # int() reads "03" as 3 and "6_0" as 60: such keys would merge with or
    # stand for another job, so the allocation checked would not be the file's
    text = json.dumps({"owner": {"3": 0, key: 1}, "min_value": "0/1"})
    with pytest.raises(InstanceFormatError) as err:
        parse_allocation(text)
    assert f"owner[{key!r}]" in str(err.value)


def test_parse_allocation_rejects_duplicate_job_key():
    with pytest.raises(InstanceFormatError, match="duplicate key '3'"):
        parse_allocation('{"owner":{"3":0,"3":1},"min_value":"0/1"}')


def test_parse_allocation_rejects_unknown_field():
    with pytest.raises(InstanceFormatError, match="unknown field 'junk'"):
        parse_allocation('{"owner":{},"min_value":"0/1","junk":5}')


def test_parse_allocation_rejects_bad_rational():
    with pytest.raises(InstanceFormatError, match="min_value"):
        parse_allocation('{"owner":{},"min_value":"1.5"}')


@pytest.mark.parametrize("raw", [" 3/1", "3_0/1", "+3/1", "03/1", "\u0663/1"])
def test_parse_allocation_rejects_non_canonical_rational(raw):
    # int() reads each of these, "3_0" as 30: a min_value the file does not
    # spell in "p/q" form must not parse
    with pytest.raises(InstanceFormatError, match="min_value"):
        parse_allocation('{"owner":{},"min_value":"%s"}' % raw)


# ---------------------------------------------------------------- verify

def test_verify_single_machine_sums():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    alloc = Allocation(owner={0: 0, 1: 0}, min_value=Fraction(7))
    assert verify_allocation(inst, alloc) == 7


def test_verify_split_pair():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    # oracle by hand: both-on-one gives 0, one each gives 4
    alloc = Allocation(owner={0: 0, 1: 1}, min_value=Fraction(4))
    assert verify_allocation(inst, alloc) == 4
    both = Allocation(owner={0: 0, 1: 0}, min_value=Fraction(0))
    assert verify_allocation(inst, both) == 0


def test_verify_rejects_ineligible():
    inst = tiny_instance([(5, [0])], machines=2)
    alloc = Allocation(owner={0: 1}, min_value=Fraction(0))
    with pytest.raises(ValueError, match="job 0 assigned to machine 1"):
        verify_allocation(inst, alloc)


# ---------------------------------------------------------------- oracle

def test_oracle_single_machine_assigns_everything():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    assert exact_optimum(inst) == 7


def test_oracle_symmetric_pair():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    assert exact_optimum(inst) == 4


def test_oracle_starved_machine():
    inst = tiny_instance([(5, [0])], machines=2)
    assert exact_optimum(inst) == 0


def test_oracle_witness_matches_value():
    for seed in range(25):
        inst = generate_random(m=3, n=5, max_size=9, density=Fraction(1, 2), seed=seed)
        value, witness = exact_optimum_with_witness(inst)
        assert verify_allocation(inst, witness) == value
        assert witness.min_value == value


def test_oracle_monotone_under_added_job():
    for seed in range(15):
        inst = generate_random(m=2, n=4, max_size=8, density=Fraction(2, 3), seed=seed)
        bigger = Instance(
            machine_count=inst.machine_count,
            jobs=inst.jobs + (JobSpec(size=3, eligible=frozenset({0, 1})),),
        )
        assert exact_optimum(bigger) >= exact_optimum(inst)


def test_oracle_budget_guard():
    inst = generate_random(m=6, n=12, max_size=5, density=Fraction(1), seed=0)
    with pytest.raises(OracleBudgetError):
        exact_optimum(inst)


# ---------------------------------------------------------------- generator

def test_generator_full_density_covers_everything():
    inst = generate_random(m=2, n=3, max_size=10, density=Fraction(1), seed=7)
    assert all(job.eligible == frozenset({0, 1}) for job in inst.jobs)
    assert all(1 <= job.size <= 10 for job in inst.jobs)


def test_generator_deterministic():
    a = generate_random(m=3, n=6, max_size=12, density=Fraction(1, 2), seed=42)
    b = generate_random(m=3, n=6, max_size=12, density=Fraction(1, 2), seed=42)
    assert a == b
    c = generate_random(m=3, n=6, max_size=12, density=Fraction(1, 2), seed=43)
    assert c == generate_random(m=3, n=6, max_size=12, density=Fraction(1, 2), seed=43)


def test_generator_rejects_bad_density():
    with pytest.raises(ValueError):
        generate_random(m=1, n=1, max_size=1, density=Fraction(0), seed=0)
    with pytest.raises(ValueError):
        generate_random(m=1, n=1, max_size=1, density=Fraction(3, 2), seed=0)
