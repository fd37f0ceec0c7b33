from mutants import stale_targets


def test_every_mutant_target_occurs_once_and_differs_from_its_replacement():
    # a refactor that moves a guarded expression fails here, not minutes into the mutation run
    assert stale_targets() == []
