"""A slice of the identity corpus: the invocations at one prime, 536870923
(where rref takes 63 uint64 updates between reductions), and those that
name none of the corpus primes (rank-oracle dumps and usage errors),
checked against the recorded digests.  `python tests/identity_corpus.py --check` runs the
whole corpus."""

import identity_corpus


def test_a_slice_of_the_identity_corpus_is_unchanged():
    primes = {str(p) for p in identity_corpus.PRIMES}
    chosen = [argv for argv in identity_corpus.corpus()
              if "536870923" in argv or not primes & set(argv)]
    assert len(chosen) > 100
    digests = identity_corpus.run(chosen)
    assert identity_corpus.moved(digests, identity_corpus.recorded()) == []
