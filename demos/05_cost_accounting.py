"""Round and byte meters against the analytic cost model.

Every send is metered twice: wire bytes as serialized (Z_L elements in
1, 4 or 8-byte words, Z_p elements packed at ceil(log2 p) bits and Z_2
elements at one bit, plus headers), and cost-model bytes where ring
elements count their width and bit-ring elements count a single bit. The
malicious variants send the same ring elements; each opening adds only a
hash of the component and link digests, which count as wire bytes alone.
"""

from falcon.cli import main

PROTOCOLS = ["mult", "matmul", "pc", "wa", "relu", "pow", "div", "bn"]

if __name__ == "__main__":
    for proto in PROTOCOLS:
        main(["bench", "--protocol", proto, "--n", "256"])
        print()
    print("same protocols under the malicious model (same cost-model bytes, more wire bytes):")
    main(["bench", "--protocol", "matmul", "--dims", "8,8,8", "--threat", "malicious"])
    print()
    main(["bench", "--protocol", "relu", "--n", "256", "--threat", "malicious", "--reference"])
