/*
 * espresso -- two-level boolean minimization, after the SPEC92
 * benchmark: a Quine-McCluskey implementation.  Reads the number of
 * variables and a list of minterm indices (terminated by -1, with
 * optional don't-cares after a -2 marker), combines implicants,
 * extracts prime implicants, and greedily covers the minterms.
 *
 * Symbolic category: bit-twiddling inner loops with heavily
 * data-dependent branches, a sorting pass, and a covering loop.
 *
 * Input example: "4  0 1 2 5 6 7 8 9 10 14 -1"
 */

#define MAX_TERMS 1024
#define MAX_VARS  12

/* An implicant is (value bits, mask of don't-care positions). */
int imp_value[MAX_TERMS];
int imp_mask[MAX_TERMS];
int imp_used[MAX_TERMS];
int imp_count;

int next_value[MAX_TERMS];
int next_mask[MAX_TERMS];
int next_count;

int prime_value[MAX_TERMS];
int prime_mask[MAX_TERMS];
int prime_count;

int minterm_list[MAX_TERMS];
int minterm_count;
int care_count;

int chosen[MAX_TERMS];
int chosen_count;

int variable_count;

void die(char *msg)
{
    puts(msg);
    exit(1);
}

int read_int(void)
{
    int c, value, sign;
    value = 0;
    sign = 1;
    c = getchar();
    while (c == ' ' || c == '\n' || c == '\t' || c == '\r')
        c = getchar();
    if (c == '-') {
        sign = -1;
        c = getchar();
    }
    if (c < '0' || c > '9')
        die("expected integer");
    while (c >= '0' && c <= '9') {
        value = value * 10 + (c - '0');
        c = getchar();
    }
    return sign * value;
}

int popcount(int bits)
{
    int count = 0;
    while (bits) {
        count += bits & 1;
        bits >>= 1;
    }
    return count;
}

void read_problem(void)
{
    int value, reading_cares;
    variable_count = read_int();
    if (variable_count < 1 || variable_count > MAX_VARS)
        die("bad variable count");
    minterm_count = 0;
    care_count = -1;
    reading_cares = 1;
    for (;;) {
        value = read_int();
        if (value == -1)
            break;
        if (value == -2) {
            /* Everything after this marker is a don't-care. */
            care_count = minterm_count;
            reading_cares = 0;
            continue;
        }
        if (value < 0 || value >= (1 << variable_count))
            die("minterm out of range");
        if (minterm_count >= MAX_TERMS)
            die("too many minterms");
        minterm_list[minterm_count++] = value;
    }
    if (reading_cares)
        care_count = minterm_count;
    if (care_count == 0)
        die("no required minterms");
}

int implicant_exists(int value, int mask)
{
    int i;
    for (i = 0; i < next_count; i++)
        if (next_value[i] == value && next_mask[i] == mask)
            return 1;
    return 0;
}

void record_prime(int value, int mask)
{
    int i;
    for (i = 0; i < prime_count; i++)
        if (prime_value[i] == value && prime_mask[i] == mask)
            return;
    if (prime_count >= MAX_TERMS)
        die("too many primes");
    prime_value[prime_count] = value;
    prime_mask[prime_count] = mask;
    prime_count++;
}

/* One Quine-McCluskey round: merge implicants differing in one bit. */
int combine_round(void)
{
    int i, j, merged_any;
    next_count = 0;
    merged_any = 0;
    for (i = 0; i < imp_count; i++)
        imp_used[i] = 0;
    for (i = 0; i < imp_count; i++) {
        for (j = i + 1; j < imp_count; j++) {
            int difference;
            if (imp_mask[i] != imp_mask[j])
                continue;
            difference = imp_value[i] ^ imp_value[j];
            if (popcount(difference) != 1)
                continue;
            imp_used[i] = 1;
            imp_used[j] = 1;
            merged_any = 1;
            if (!implicant_exists(imp_value[i] & ~difference,
                                  imp_mask[i] | difference)) {
                if (next_count >= MAX_TERMS)
                    die("implicant overflow");
                next_value[next_count] = imp_value[i] & ~difference;
                next_mask[next_count] = imp_mask[i] | difference;
                next_count++;
            }
        }
    }
    for (i = 0; i < imp_count; i++)
        if (!imp_used[i])
            record_prime(imp_value[i], imp_mask[i]);
    for (i = 0; i < next_count; i++) {
        imp_value[i] = next_value[i];
        imp_mask[i] = next_mask[i];
    }
    imp_count = next_count;
    return merged_any;
}

void find_primes(void)
{
    int i;
    imp_count = minterm_count;
    for (i = 0; i < minterm_count; i++) {
        imp_value[i] = minterm_list[i];
        imp_mask[i] = 0;
    }
    prime_count = 0;
    while (imp_count > 0) {
        if (!combine_round()) {
            for (i = 0; i < imp_count; i++)
                record_prime(imp_value[i], imp_mask[i]);
            break;
        }
    }
}

int covers(int prime, int minterm)
{
    return (minterm & ~prime_mask[prime]) == prime_value[prime];
}

/* Greedy set cover of the required minterms by prime implicants. */
void cover_minterms(void)
{
    int remaining[MAX_TERMS];
    int remaining_count = 0;
    int i;
    for (i = 0; i < care_count; i++)
        remaining[remaining_count++] = minterm_list[i];
    chosen_count = 0;
    while (remaining_count > 0) {
        int best = -1;
        int best_cover = 0;
        int p;
        for (p = 0; p < prime_count; p++) {
            int cover = 0;
            for (i = 0; i < remaining_count; i++)
                if (covers(p, remaining[i]))
                    cover++;
            if (cover > best_cover) {
                best_cover = cover;
                best = p;
            }
        }
        if (best < 0)
            die("cover failure");
        chosen[chosen_count++] = best;
        {
            int kept = 0;
            for (i = 0; i < remaining_count; i++)
                if (!covers(best, remaining[i]))
                    remaining[kept++] = remaining[i];
            remaining_count = kept;
        }
    }
}

void print_term(int prime)
{
    int bit;
    for (bit = variable_count - 1; bit >= 0; bit--) {
        if ((prime_mask[prime] >> bit) & 1)
            printf("-");
        else if ((prime_value[prime] >> bit) & 1)
            printf("1");
        else
            printf("0");
    }
}

int literal_count(int prime)
{
    return variable_count - popcount(prime_mask[prime]);
}

void print_solution(void)
{
    int k, literals;
    literals = 0;
    printf("primes=%d chosen=%d\n", prime_count, chosen_count);
    for (k = 0; k < chosen_count; k++) {
        print_term(chosen[k]);
        printf("\n");
        literals += literal_count(chosen[k]);
    }
    printf("literals=%d\n", literals);
}

int main(void)
{
    read_problem();
    find_primes();
    cover_minterms();
    print_solution();
    return 0;
}
